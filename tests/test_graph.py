"""Graphs: construction, parsing, derivative laws, supports."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ladderrep import (
    DatumValidationError,
    GraphParseError,
    GroupKind,
    HalfInt,
    aubert_dual,
    build_graph,
    canonical_form,
    derivative,
    determinantal_formula,
    graph_to_datum,
    hi,
    is_supercuspidal,
    langlands_data_of,
    parse_colored_vertices,
    standard_module_of,
    supp_ladder,
    validate_datum,
)
from ladderrep import graph as graph_module
from ladderrep.render import ascii_graph, dot_graph

from helpers import (
    INT_LABEL,
    assert_has_vertex_matches_vertices,
    golden_data,
    golden_datum,
    graph_m,
    partner,
    random_datum,
    reference_aubert_dual,
    reference_derivative,
    reference_is_supercuspidal,
    reference_minimal_vertices,
    reference_supp_ladder,
    reference_vertices,
    supp_ladder_by_derivatives,
    unipotent,
)
from test_datum import _mutations, _outcome
from test_jsonio import _data


def vertex_set(g):
    return {(str(a), h) for a, h in g.vertices()}


def colored_str(g):
    return {(str(a), h): c for (a, h), c in g.colored_map().items()}


def test_single_row_graph():
    g = build_graph(unipotent([1], 0, 1).blocks[0])
    assert vertex_set(g) == {("1", 0), ("0", 0), ("-1", 0)}
    assert colored_str(g) == {("1", 0): 0, ("0", 0): 1, ("-1", 0): 0}
    assert graph_m(g) == 1


def test_first_drawn_figure():
    """Three half-integral rows, a width-4 band alternating -,+,-,+ rightward."""
    g = build_graph(unipotent(["1/2", "5/2", "7/2"], 0, -1).blocks[0])
    expected = {
        # top row, heights descend with the row index
        ("1/2", 0): -1, ("-1/2", 0): 1, ("-3/2", 0): -1, ("-5/2", 0): 1, ("-7/2", 0): 0,
        ("5/2", -1): 0, ("3/2", -1): 1, ("1/2", -1): -1, ("-1/2", -1): 1,
        ("-3/2", -1): -1, ("-5/2", -1): 0,
        ("7/2", -2): 0, ("5/2", -2): -1, ("3/2", -2): 1, ("1/2", -2): -1, ("-1/2", -2): 1,
    }
    assert colored_str(g) == expected


def test_second_drawn_figure():
    """Five integral rows; the top and bottom rows are fully uncolored."""
    g = build_graph(unipotent([0, 1, 2, 3, 4], 1, -1).blocks[0])
    cmap = colored_str(g)
    top = {a for (a, h) in cmap if h == 1}
    bottom = {a for (a, h) in cmap if h == -3}
    assert top == {"0", "-1", "-2", "-3", "-4"}
    assert bottom == {"4", "3", "2", "1", "0"}
    assert all(cmap[(a, 1)] == 0 for a in top)
    assert all(cmap[(a, -3)] == 0 for a in bottom)
    assert cmap[("0", 0)] == -1 and cmap[("-1", 0)] == 1 and cmap[("-2", 0)] == -1
    assert cmap[("1", -1)] == 1 and cmap[("0", -1)] == -1 and cmap[("-1", -1)] == 1
    assert cmap[("2", -2)] == -1 and cmap[("1", -2)] == 1 and cmap[("0", -2)] == -1
    assert cmap[("1", 0)] == 0 and cmap[("-3", 0)] == 0


def test_figures_parse_to_their_data():
    for d in (unipotent(["1/2", "5/2", "7/2"], 0, -1), unipotent([0, 1, 2, 3, 4], 1, -1)):
        block = d.blocks[0]
        assert graph_to_datum(build_graph(block)) == block


def test_parse_is_translation_invariant():
    block = unipotent([0, 1, 2], 1, 1).blocks[0]
    colored = {(a, h + 7): c for (a, h), c in build_graph(block).colored_map().items()}
    assert parse_colored_vertices(block.rho, colored) == block


def test_parse_single_colored_vertex():
    block = parse_colored_vertices(INT_LABEL, {(hi("0"), 0): 1})
    assert block == unipotent([0], 0, 1, group=GroupKind.SP).blocks[0]


def test_parse_dual_target_figure():
    """The reflected five-pair figure recovers its stated datum."""
    source = unipotent([0, 1, 4], 1, 1).blocks[0]
    g = build_graph(source)
    mapped = {(-a, (a.twice + 2 * h) // 2): c for (a, h), c in g.colored_map().items()}
    block = parse_colored_vertices(INT_LABEL, mapped)
    assert [str(x) for x in block.exponents] == ["-4", "-3", "0", "1", "2", "3", "4"]
    assert block.l == 3 and block.eta == 1


def test_parse_rejects_garbage():
    with pytest.raises(GraphParseError):
        parse_colored_vertices(INT_LABEL, {(hi("0"), 0): 1, (hi("2"), 0): 1})
    with pytest.raises(GraphParseError):
        parse_colored_vertices(INT_LABEL, {(hi("0"), 0): 1, (hi("1"), 0): 1})


def test_parse_odd_colorless_integral_rejected():
    with pytest.raises(GraphParseError):
        parse_colored_vertices(INT_LABEL, {(hi("0"), 0): 0})


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_round_trip_random(seed):
    d = random_datum(random.Random(seed))
    for block in d.blocks:
        assert graph_to_datum(build_graph(block)) == block


def test_round_trip_on_corpus(corpus):
    for d in corpus:
        for block in d.blocks:
            assert graph_to_datum(build_graph(block)) == block


def test_remark_invariants_on_corpus(corpus):
    for d in corpus:
        for block in d.blocks:
            g = build_graph(block)
            assert_has_vertex_matches_vertices(g)
            zeros = [(a, h) for a, h in g.vertices() if g.color(a, h) == 0]
            assert len(zeros) % 2 == 0
            for a, h in zeros:
                assert g.color(*partner(g, a, h)) == 0
            minimal_abscissas = [a for a, _ in reference_minimal_vertices(g)]
            assert len(minimal_abscissas) == len(set(minimal_abscissas))


def test_minimal_vertices_match_reference(corpus, small_data):
    golden = [golden_datum(data) for data in golden_data()]
    minimal = 0
    for d in corpus + small_data + golden:
        for block in d.blocks:
            g = build_graph(block)
            assert list(g.vertices()) == reference_vertices(g)
            minimal += len(reference_minimal_vertices(g))
    assert minimal > 0


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_worked_example():
    d = unipotent([0, 1, 2], 1, 1)
    out = derivative(d, "1", hi("0"))
    assert out == unipotent([-1, 1, 2], 1, 1)


def test_derivative_singleton():
    d = unipotent([2], 0, 1)
    assert derivative(d, "1", hi("2")) == unipotent([1], 0, 1)


def test_derivative_blocked_by_diagonal():
    d = unipotent([0, 1, 2], 1, 1)
    assert derivative(d, "1", hi("1")) is None


def test_derivative_absent_label_is_zero():
    d = unipotent([0, 1, 2], 1, 1)
    assert derivative(d, "zz", hi("0")) is None


def test_derivative_can_cross_into_paired_zone():
    # shifting 1/2 to -1/2 keeps the exponent paired and honest
    d = unipotent(["1/2", "3/2"], 1, -1)
    out = derivative(d, "1", hi("1/2"))
    assert out == unipotent(["-1/2", "3/2"], 1, -1)


def test_derivative_gap_collapses_to_reduced_datum():
    # removing the whole central row leaves a height gap; the parse returns
    # the reduced equivalent of the literal exponent shift
    d = unipotent(["-3/2", "1/2", "3/2"], 1, 1)
    out = derivative(d, "1", hi("1/2"))
    assert out == unipotent(["-3/2", "3/2"], 1, -1)


def test_derivative_shift_to_degenerate_middle():
    d = unipotent(["1/2", "3/2", "5/2", "7/2"], 0, 1)
    out = derivative(d, "1", hi("1/2"))
    assert out == unipotent(["-1/2", "3/2", "5/2", "7/2"], 0, 1)
    assert canonical_form(out) == unipotent(["3/2", "5/2", "7/2"], 0, -1)


def test_derivative_matches_reference(corpus, small_corpus, small_data):
    # every block at every twist of its parity, from two steps below its
    # graph to two steps above it, and one absent label per datum
    golden = [golden_datum(data) for data in golden_data()]
    calls = nonzero = 0
    for d in corpus + small_corpus + small_data + golden:
        for block in d.blocks:
            rid = block.rho.id
            g = build_graph(block)
            ends = [a.twice for a, _ in g.vertices()] + [x.twice for x in block.exponents]
            for twice in range(min(ends) - 4, max(ends) + 5, 2):
                x = HalfInt(twice)
                expected = reference_derivative(d, rid, x)
                assert derivative(d, rid, x) == expected, (d, rid, x)
                calls += 1
                nonzero += expected is not None
        assert not d.has_block("zz")
        assert derivative(d, "zz", HalfInt(0)) is None
        assert reference_derivative(d, "zz", HalfInt(0)) is None
    assert 0 < nonzero < calls


def _derivative_outcome(d, rho_id, x):
    try:
        return derivative(d, rho_id, x)
    except DatumValidationError as err:
        return err.clause, err.block_id, str(err)


def test_derivative_validates_its_datum(corpus, small_corpus):
    # at every exponent, one twist that is not an exponent and one absent
    # label, an invalid datum fails exactly as validate_datum fails on it
    examples = [([-3, 1, 2], 1, 1, "pairing-positivity"), ([0, 1, 2], 1, -1, "global-sign")]
    for xs, l, eta, clause in examples:
        bad = unipotent(xs, l, eta, group=GroupKind.SP)
        assert _derivative_outcome(bad, "1", hi("1")) == _outcome(validate_datum, bad)
        assert _outcome(validate_datum, bad)[0] == clause
    invalid = 0
    for d in list(corpus) + list(small_corpus):
        for m in _mutations(d):
            expected = _outcome(validate_datum, m)
            calls = [(b.rho.id, x) for b in m.blocks for x in b.exponents + (HalfInt(99),)]
            for rho_id, x in calls + [("zz", HalfInt(0))]:
                got = _derivative_outcome(m, rho_id, x)
                if isinstance(expected, tuple):
                    assert got == expected, (m, rho_id, x)
                else:
                    assert not isinstance(got, tuple), (m, rho_id, x)
            invalid += isinstance(expected, tuple)
    assert invalid > 0


def test_double_derivative_vanishes_on_corpus(corpus):
    for d in corpus:
        for block in d.blocks:
            g = build_graph(block)
            for a, h in reference_minimal_vertices(g):
                if g.color(a, h) != 0:
                    continue
                step = derivative(d, block.rho.id, a)
                assert step is not None
                assert derivative(step, block.rho.id, a) is None


# ---------------------------------------------------------------------------
# supercuspidality and supports


def test_supercuspidal_staircase():
    assert is_supercuspidal(unipotent([0, 1, 2], 0, -1))


def test_not_supercuspidal():
    assert not is_supercuspidal(unipotent([1], 0, 1))


def test_empty_datum_supercuspidal():
    from ladderrep import LadderDatum

    assert is_supercuspidal(LadderDatum.of(GroupKind.SO_ODD, []))


def test_supp_ladder_worked_example():
    s = supp_ladder(unipotent([0, 1, 2], 1, 1))
    (rho, values), = s.exponents
    assert [str(v) for v in values] == ["-2", "-1", "-1", "0", "0", "1", "1", "2"]
    assert s.core == unipotent([0], 0, 1, group=GroupKind.SP)


def test_supp_ladder_supercuspidal_is_its_own_core():
    d = unipotent([0, 1, 2], 0, -1)
    s = supp_ladder(d)
    assert s.exponents == ()
    assert s.core == d


def test_supp_ladder_one_step():
    s = supp_ladder(unipotent([1], 0, 1))
    (_, values), = s.exponents
    assert [str(v) for v in values] == ["-1", "1"]
    assert s.core == unipotent([0], 0, 1, group=GroupKind.SP)


def test_supp_ladder_step_count_is_m(corpus):
    for d in corpus:
        total_m = sum(graph_m(build_graph(b)) for b in d.blocks)
        s = supp_ladder(d)
        assert sum(len(v) for _, v in s.exponents) == 2 * total_m


def test_supp_ladder_matches_derivative_iteration(corpus):
    for d in corpus:
        assert supp_ladder_by_derivatives(d) == supp_ladder(d)


def test_each_derivative_step_lowers_m_by_one(corpus):
    def total_m(datum):
        return sum(graph_m(build_graph(b)) for b in datum.blocks)

    for d in corpus[:60]:
        for block in d.blocks:
            g = build_graph(block)
            for a, h in reference_minimal_vertices(g):
                if g.color(a, h) == 0:
                    step = derivative(d, block.rho.id, a)
                    assert total_m(step) == total_m(d) - 1


def test_supp_ladder_exponents_are_all_uncolored_abscissas(corpus):
    # order-independence: the multiset equals the uncolored abscissas directly
    for d in corpus:
        s = supp_ladder(d)
        expected = {}
        for b in d.blocks:
            g = build_graph(b)
            vals = sorted(
                (a for a, h in g.vertices() if g.color(a, h) == 0),
                key=lambda v: v.twice,
            )
            if vals:
                expected[b.rho.id] = [str(v) for v in vals]
        got = {rho.id: [str(v) for v in values] for rho, values in s.exponents}
        assert got == expected


def test_supp_ladder_core_is_colored_part(corpus):
    for d in corpus:
        s = supp_ladder(d)
        assert is_supercuspidal(s.core)
        validate_datum(s.core)
        blocks = []
        for b in d.blocks:
            g = build_graph(b)
            kept = {v: c for v, c in g.colored_map().items() if c != 0}
            if kept:
                blocks.append(parse_colored_vertices(b.rho, kept))
        from ladderrep import LadderDatum

        direct = canonical_form(LadderDatum.of(d.group, blocks))
        assert s.core == direct


def test_support_dual_and_supercuspidality_match_the_references(corpus, small_corpus):
    # on the corpus, the exhaustive small sweep (non-canonical data
    # included), the golden data, the escaped label, the small corpus and
    # 2,000 random data with t <= 9
    rng = random.Random(20261020)
    data = _data(corpus) + small_corpus + [random_datum(rng, max_t=9) for _ in range(2000)]
    assert max(b.t for d in data for b in d.blocks) == 9
    fixed = 0
    for d in data:
        assert supp_ladder(d) == reference_supp_ladder(d), d
        assert aubert_dual(d) == reference_aubert_dual(d), d
        assert is_supercuspidal(d) == reference_is_supercuspidal(d), d
        fixed += is_supercuspidal(d)
    assert 0 < fixed < len(data)


def test_supports_and_duals_do_not_build_graphs(corpus, monkeypatch):
    # the graph, its colored map and its parser are left to the renderers
    # and the round trip
    def refuse(*args, **kwargs):
        raise AssertionError("graph surgery on a computation path")

    monkeypatch.setattr(graph_module, "build_graph", refuse)
    monkeypatch.setattr(graph_module, "parse_colored_vertices", refuse)
    monkeypatch.setattr(graph_module.LadderGraph, "colored_map", refuse)
    for d in corpus:
        supp_ladder(d)
        aubert_dual(d)
        is_supercuspidal(d)
        determinantal_formula(d)


def _validation_outcome(f, d):
    try:
        f(d)
    except DatumValidationError as err:
        return err.clause, err.block_id, str(err)
    return None


def test_datum_readers_validate_their_datum(corpus, small_corpus):
    # an invalid datum fails exactly as validate_datum fails on it, before
    # anything is read off it
    readers = [is_supercuspidal, standard_module_of, langlands_data_of, supp_ladder, aubert_dual]
    invalid = 0
    for d in list(corpus) + list(small_corpus):
        for m in _mutations(d):
            expected = _outcome(validate_datum, m)
            for f in readers:
                got = _validation_outcome(f, m)
                if isinstance(expected, tuple):
                    assert got == expected, (f.__name__, m)
                else:
                    assert got is None, (f.__name__, m)
            invalid += isinstance(expected, tuple)
    assert invalid > 0


# ---------------------------------------------------------------------------
# rendering smoke checks


def test_ascii_graph_shape():
    text = ascii_graph(build_graph(unipotent([0, 1, 2], 1, 1).blocks[0]))
    lines = text.splitlines()
    assert lines[0].startswith("x:")
    assert len(lines) == 4


def test_dot_graph_contains_edges():
    text = dot_graph(build_graph(unipotent([1], 0, 1).blocks[0]))
    assert text.startswith("digraph")
    assert "->" in text
