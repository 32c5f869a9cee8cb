"""Row-for-row reproduction of the published expansion tables.

Each golden file is a hand transcription of one table: the admissible
permutations in lexicographic order with signs and direct-sum summands
(zero rows included), the fully stated final identities where available,
term counts otherwise, and the support-projection verdicts quoted alongside
the tables.
"""

import pytest

from ladderrep import (
    determinantal_formula,
    enumerate_sigma,
    sigma_table,
    standard_module_of,
    supp_ladder,
    validate_datum,
)

from helpers import golden_datum, golden_module, load_golden, supp_standard_module

GOLDEN_FILES = [
    "table_sp8_l1.json",
    "table_so5_trivial.json",
    "table_sp14_l2.json",
    "table_sp24_l1.json",
]


@pytest.fixture(params=GOLDEN_FILES, ids=lambda n: n.split(".")[0])
def golden(request):
    data = load_golden(request.param)
    datum = golden_datum(data)
    return data, datum


def _module(data, entry):
    datum = golden_datum(data)
    return golden_module(entry, datum.group, datum.blocks[0].rho)


def test_rank(golden):
    data, datum = golden
    assert validate_datum(datum) == data["rank"]


def test_sigma_count(golden):
    data, datum = golden
    assert len(enumerate_sigma(datum)) == data["sigma_count"]


def test_rows_match_exactly(golden):
    data, datum = golden
    rows = sigma_table(datum)
    assert len(rows) == len(data["rows"])
    for engine_row, expected in zip(rows, data["rows"]):
        assert list(engine_row.sigma.perms[0]) == expected["sigma"]
        assert engine_row.sigma.sign == expected["sign"]
        expected_summands = [_module(data, s) for s in expected["summands"]]
        assert list(engine_row.summands) == expected_summands


def test_projected_identity(golden):
    data, datum = golden
    element = determinantal_formula(datum)
    assert len(element) == data["projected_count"]
    assert all(c in (1, -1) for _, c in element.terms)
    if data.get("projected") is not None:
        expected = {
            _module(data, entry): entry["coeff"] for entry in data["projected"]
        }
        assert dict(element.terms) == expected
    identity_term = standard_module_of(datum)
    assert element.coefficient(identity_term) == 1


def test_projection_verdicts(golden):
    data, datum = golden
    target = supp_ladder(datum)
    projected = determinantal_formula(datum)
    rows = sigma_table(datum)
    for entry in data["killed"]:
        m = _module(data, entry)
        assert any(m in row.summands for row in rows), "killed module never assembled"
        assert supp_standard_module(m) != target
        assert projected.coefficient(m) == 0
    for entry in data.get("thrice", []):
        m = _module(data, entry)
        appearances = sum(
            row.summands.count(m) for row in sigma_table(datum)
        )
        assert appearances == 3
        assert projected.coefficient(m) == entry["net"]
