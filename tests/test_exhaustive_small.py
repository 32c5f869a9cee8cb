"""Exhaustive sweep over every small single-block datum.

The random corpus stays canonical by construction; this sweep enumerates
all valid (X, l, eta) over a small exponent window, including the formal
data whose middle contains -1/2, and pushes each one through every
operation.  Expectations on non-canonical data follow the documented
conventions: parses and duals land on canonical forms of the same
representation.
"""

import pytest

from ladderrep import (
    LadderDatum,
    SigmaElement,
    build_graph,
    aubert_dual,
    canonical_form,
    derivative,
    determinantal_formula,
    enumerate_sigma,
    graph_to_datum,
    is_canonical,
    jacquet_expansion,
    standard_module_of,
    supp_ladder,
    validate_datum,
)

from helpers import (
    assert_has_vertex_matches_vertices,
    reference_expansion,
    reference_minimal_vertices,
    supp_standard_module,
)


def test_graph_round_trip(small_data):
    # exact on every block whose rows are all non-empty (including the
    # formal data with a -1/2 middle exponent but intact rows); a block
    # with an empty central row parses to its reduced equivalent
    empty_rows = 0
    for d in small_data:
        for block in d.blocks:
            g = build_graph(block)
            assert_has_vertex_matches_vertices(g)
            empty_rows += sum(row.is_empty for row in g.rows)
            parsed = graph_to_datum(g)
            if all(not row.is_empty for row in g.rows):
                assert parsed == block
            else:
                assert LadderDatum.of(d.group, [parsed]) == canonical_form(d)
    assert empty_rows > 0


def test_one_minimal_vertex_per_abscissa(small_data):
    for d in small_data:
        for block in d.blocks:
            g = build_graph(block)
            abscissas = [a for a, _ in reference_minimal_vertices(g)]
            assert len(abscissas) == len(set(abscissas))
            zeros = sum(1 for v in g.vertices() if g.color(*v) == 0)
            assert zeros % 2 == 0


def test_support_routes_agree(small_data):
    for d in small_data:
        assert supp_ladder(d) == supp_standard_module(standard_module_of(d))


def test_duality_involution_up_to_canonical(small_data):
    for d in small_data:
        dual = aubert_dual(d)
        assert validate_datum(dual) == validate_datum(d)
        assert is_canonical(dual)
        assert aubert_dual(dual) == canonical_form(d)


def test_derivatives_lower_rank_and_square_to_zero(small_data):
    for d in small_data:
        n = validate_datum(d)
        for block in d.blocks:
            g = build_graph(block)
            for a, h in reference_minimal_vertices(g):
                if g.color(a, h) != 0:
                    continue
                step = derivative(d, block.rho.id, a)
                assert step is not None
                assert validate_datum(step) == n - block.rho.d
                assert derivative(step, block.rho.id, a) is None


def test_formula_identity_and_rank(small_data):
    for d in small_data:
        n = validate_datum(d)
        element = determinantal_formula(d)
        assert element.coefficient(standard_module_of(d)) == 1
        for m, c in element.terms:
            assert m.rank == n
        sigmas = enumerate_sigma(d)
        assert len(sigmas) >= 1
        assert sigmas == sorted(sigmas, key=SigmaElement.sort_key)  # the engine never sorts


@pytest.mark.parametrize("projected", [True, False])
def test_expansion_matches_reference(small_data, projected):
    for d in small_data:
        assert determinantal_formula(d, projected) == reference_expansion(d, projected)


def test_jacquet_bookkeeping(small_data):
    for d in small_data:
        n = validate_datum(d)
        for block in d.blocks:
            terms = jacquet_expansion(d, block.rho.id)
            assert any(t.gl_size == 0 for t in terms)
            for term in terms:
                assert term.gl_size + validate_datum(term.datum) == n
