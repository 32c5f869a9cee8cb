"""The streaming writer prints exactly what ``json.dumps`` prints for the builders."""

import io
import json
import random

import pytest

from ladderrep import (
    CuspidalLabel,
    DatumBlock,
    GLCombination,
    GrothendieckElement,
    GroupKind,
    LadderDatum,
    Parity,
    determinantal_formula,
    gl_determinantal_formula,
    hi,
    jacquet_expansion,
)
from ladderrep import jsonio

from helpers import (
    HALF_LABEL,
    HALF_WINDOW,
    INT_LABEL,
    INTEGRAL_WINDOW,
    enumerate_small,
    golden_datum,
    load_golden,
)
from test_formula import _gl_band, _random_gl_ladder
from test_golden_tables import GOLDEN_FILES

ESCAPED = CuspidalLabel('ρ"\\x', 1, Parity.INTEGRAL)  # needs escaping as a JSON string
ESCAPED_DATUM = LadderDatum.of(
    GroupKind.SP, [DatumBlock(ESCAPED, tuple(hi(x) for x in "012"), 1, 1)]
)


def _data(corpus):
    """The corpus, the exhaustive small sweep, the golden data and a label needing escapes."""
    small = enumerate_small(Parity.INTEGRAL, INTEGRAL_WINDOW) + enumerate_small(
        Parity.HALF_INTEGRAL, HALF_WINDOW
    )
    golden = [golden_datum(load_golden(name)) for name in GOLDEN_FILES]
    return list(corpus) + small + golden + [ESCAPED_DATUM]


def _elements(corpus):
    for d in _data(corpus):
        for projected in (True, False):
            yield determinantal_formula(d, projected)
    yield GrothendieckElement(4, ())


def _gl_combinations(corpus):
    rng = random.Random(4242)
    for _ in range(60):
        yield gl_determinantal_formula(_random_gl_ladder(rng, rng.randint(1, 5)))
    for rho in (INT_LABEL, HALF_LABEL, ESCAPED):
        yield gl_determinantal_formula(_gl_band(rho, 4))
    yield GLCombination(())


def _jacquet_term_lists(corpus):
    data = _data(corpus)
    for d in data:
        for block in d.blocks:
            yield jacquet_expansion(d, block.rho.id)
    for d in data[len(corpus):]:  # per-tuple terms, as --raw prints them
        for block in d.blocks:
            yield jacquet_expansion(d, block.rho.id, merged=False)
    yield []


OUTPUTS = {
    "det-formula": (jsonio.write_element, jsonio.element_to_json, _elements),
    "gl-det-formula": (
        jsonio.write_gl_combination,
        jsonio.gl_combination_to_json,
        _gl_combinations,
    ),
    "jacquet": (
        jsonio.write_jacquet_terms,
        lambda terms: {"terms": [jsonio.jacquet_term_to_json(t) for t in terms]},
        _jacquet_term_lists,
    ),
}


@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_writer_matches_indented_dumps(corpus, output):
    write, to_json, cases = OUTPUTS[output]
    empty = escaped = 0
    rests = {"no block": 0, "two or more blocks": 0, "escaped label": 0}
    for value in cases(corpus):
        out = io.StringIO()
        write(value, out)
        text = out.getvalue()
        assert text == json.dumps(to_json(value), indent=2, sort_keys=True) + "\n"
        empty += '"terms": []' in text
        escaped += '"\\u03c1\\"\\\\x"' in text
        if output == "jacquet":
            # the rest data's text comes from block and datum templates
            for term in value:
                blocks = term.datum.blocks
                rests["no block"] += not blocks
                rests["two or more blocks"] += len(blocks) >= 2
                rests["escaped label"] += any(b.rho == ESCAPED for b in blocks)
    assert empty >= 1 and escaped >= 1
    if output == "jacquet":
        assert min(rests.values()) >= 1, rests
