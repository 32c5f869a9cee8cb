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
from ladderrep.cli import main
from ladderrep.formula import expansion_rows, gl_rows
from ladderrep.graph import jacquet_rows

from helpers import (
    HALF_LABEL,
    HALF_WINDOW,
    INT_LABEL,
    INTEGRAL_WINDOW,
    enumerate_small,
    golden_datum,
    load_golden,
    reference_jacquet_expansion,
    write_element,
    write_gl_combination,
    write_jacquet_terms,
)
from test_formula import EMPTY_GL_LADDERS, _gl_band, _random_gl_ladder
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


def _expansions(corpus):
    """Each expansion, projected and raw, as the arguments of its row writer
    and as its element."""
    for d in _data(corpus):
        for projected in (True, False):
            yield (d.group, *expansion_rows(d, projected)), determinantal_formula(d, projected)
    yield (GroupKind.SP, 4, {}, []), GrothendieckElement(4, ())


def _write_expansion(value, out) -> None:
    """The command line's row writer, which prints what the object writer prints."""
    rows, element = value
    jsonio.write_module_rows(*rows, out)
    reference = io.StringIO()
    write_element(element, reference)
    assert out.getvalue() == reference.getvalue()


def _gl_ladders():
    rng = random.Random(4242)
    for _ in range(60):
        yield _random_gl_ladder(rng, rng.randint(1, 5))
    for rho in (INT_LABEL, HALF_LABEL, ESCAPED):
        yield _gl_band(rho, 4)
    yield from EMPTY_GL_LADDERS


def _gl_combinations(corpus):
    for ladder in _gl_ladders():
        yield gl_determinantal_formula(ladder)
    yield GLCombination(())


def _jacquet_term_lists(corpus):
    data = _data(corpus)
    for d in data:
        for block in d.blocks:
            yield jacquet_expansion(d, block.rho.id)
    for d in data[len(corpus):]:  # per-tuple terms, as --raw prints them
        for block in d.blocks:
            yield reference_jacquet_expansion(d, block.rho.id, merged=False)
    yield []


OUTPUTS = {
    "det-formula": (_write_expansion, lambda value: jsonio.element_to_json(value[1]), _expansions),
    "gl-det-formula": (
        write_gl_combination,
        jsonio.gl_combination_to_json,
        _gl_combinations,
    ),
    "jacquet": (
        write_jacquet_terms,
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


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _jacquet_dumps(terms) -> str:
    return _dumps({"terms": [jsonio.jacquet_term_to_json(t) for t in terms]})


def test_gl_row_writer_matches_indented_dumps():
    # the command line renders the walked rows, building no combination
    empty = 0
    for ladder in _gl_ladders():
        out = io.StringIO()
        jsonio.write_gl_rows(ladder.rho, gl_rows(ladder), out)
        expected = _dumps(jsonio.gl_combination_to_json(gl_determinantal_formula(ladder)))
        assert out.getvalue() == expected
        empty += '"terms": []' in expected
    assert empty >= len(EMPTY_GL_LADDERS)


def test_jacquet_row_writer_matches_indented_dumps(corpus):
    # the command line renders the walked rows, building no term: the whole
    # expansion, a level with terms, a level without, and a negative size
    rests = {"no block": 0, "two or more blocks": 0, "escaped label": 0}
    for d in _data(corpus):
        for block in d.blocks:
            full = jacquet_expansion(d, block.rho.id)
            top = full[-1].gl_size
            for k in (None, top, top + 1, -1):
                rest_data, rows = jacquet_rows(d, block.rho.id)
                if k is not None:
                    rows = [row for row in rows if row[0] == k]
                out = io.StringIO()
                jsonio.write_jacquet_rows(rest_data, rows, out)
                terms = full if k is None else [t for t in full if t.gl_size == k]
                assert out.getvalue() == _jacquet_dumps(terms), (d, k)
            for term in full:
                blocks = term.datum.blocks
                rests["no block"] += not blocks
                rests["two or more blocks"] += len(blocks) >= 2
                rests["escaped label"] += any(b.rho == ESCAPED for b in blocks)
    assert min(rests.values()) >= 1, rests


def test_jacquet_raw_prints_the_per_tuple_bytes(capsys, corpus):
    # --raw prints one term per drop in the reference's per-tuple order,
    # and those are the merged output's bytes
    for d in _data(corpus)[::6] + [ESCAPED_DATUM]:
        text = json.dumps(jsonio.datum_to_json(d))
        for block in d.blocks:
            outputs = []
            for flags in ([], ["--raw"], ["--raw", "--k", "-1"]):
                assert main(["jacquet", text, "--rho", block.rho.id, *flags]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[1] == _jacquet_dumps(reference_jacquet_expansion(d, block.rho.id, merged=False))
            assert outputs[0] == outputs[1]
            assert outputs[2] == _jacquet_dumps([])
