import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import (  # noqa: E402
    HALF_WINDOW,
    INTEGRAL_WINDOW,
    build_corpus,
    enumerate_small,
)
from ladderrep import Parity, is_canonical  # noqa: E402


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return build_corpus(seed=977, size=60, max_t=4)


@pytest.fixture(scope="session")
def small_data():
    """Every valid single-block datum over a small exponent window."""
    data = enumerate_small(Parity.INTEGRAL, INTEGRAL_WINDOW) + enumerate_small(
        Parity.HALF_INTEGRAL, HALF_WINDOW
    )
    # duplicates cannot arise: (X, l, eta) determines the datum
    assert len(data) > 150
    assert any(not is_canonical(d) for d in data)
    return data
