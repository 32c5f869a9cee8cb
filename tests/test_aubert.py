"""Duality on ladder data: worked examples, involution, fixed points, and
its commuting with Jacquet modules."""

import itertools
from collections import Counter

from ladderrep import (
    CuspidalLabel,
    DatumValidationError,
    GroupKind,
    LadderDatum,
    Parity,
    SupportMultiset,
    aubert_dual,
    canonical_form,
    is_canonical,
    is_supercuspidal,
    jacquet_expansion,
    langlands_data_of,
    standard_module_of,
    validate_datum,
)
from ladderrep.render import render_module

from helpers import a_parameter_datum, golden_data, golden_datum, mw_dual, unipotent


def test_worked_dual():
    d = unipotent([0, 1, 4], 1, 1)
    dual = aubert_dual(d)
    assert dual == unipotent([-4, -3, 0, 1, 2, 3, 4], 3, 1)
    data = langlands_data_of(dual)
    assert [(str(s.x), str(s.y)) for s in data.segments] == [
        ("-4", "-4"),
        ("-3", "-3"),
        ("0", "-2"),
    ]
    assert [(p.a, p.sign) for p in data.tempered.pieces] == [(3, 1)]


def test_worked_dual_is_involution():
    d = unipotent([0, 1, 4], 1, 1)
    assert aubert_dual(aubert_dual(d)) == d


def test_steinberg_type_dual():
    d = unipotent([1], 0, 1)
    dual = aubert_dual(d)
    assert dual == unipotent([-1, 0, 1], 1, 1)
    assert render_module(standard_module_of(dual)) == "|.|^-1⋊π(0^+)"


def test_trivial_and_steinberg_swap():
    trivial_so5 = unipotent(["-3/2", "-1/2", "1/2", "3/2"], 2, -1)
    steinberg_so5 = unipotent(["3/2"], 0, 1)
    assert aubert_dual(trivial_so5) == steinberg_so5
    assert aubert_dual(steinberg_so5) == trivial_so5


def test_rank_is_preserved(corpus):
    for d in corpus:
        assert validate_datum(aubert_dual(d)) == validate_datum(d)


def test_involution_on_corpus(corpus):
    assert len(corpus) >= 200
    for d in corpus:
        dual = aubert_dual(d)
        assert is_canonical(dual)
        assert aubert_dual(dual) == d


def test_supercuspidal_fixed_points(corpus):
    found = 0
    for d in corpus:
        if is_supercuspidal(d):
            found += 1
            assert aubert_dual(d) == d
    # staircase fixed points of both parity classes, checked explicitly
    for d in (
        unipotent([0, 1, 2], 0, -1),
        unipotent(["1/2", "3/2", "5/2"], 0, -1),
        unipotent([0, 1, 2, 3], 0, 1),
        unipotent([0, 1, 2, 3], 0, -1),
    ):
        assert is_supercuspidal(d)
        assert aubert_dual(d) == d
        assert found >= 0


def test_supports_swap_coherently(corpus):
    # duality preserves the exponent multiset of the support
    from ladderrep import supp_ladder

    for d in corpus[:80]:
        s = supp_ladder(d)
        s_dual = supp_ladder(aubert_dual(d))
        mine = {rho.id: sorted(v.twice for v in values) for rho, values in s.exponents}
        theirs = {rho.id: sorted(v.twice for v in values) for rho, values in s_dual.exponents}
        assert mine == theirs


def test_dual_builds_no_support(corpus, small_data, monkeypatch):
    # the cores are read off the standard key's tempered part; the support's
    # exponents are never built
    def refuse(*args, **kwargs):
        raise AssertionError("a support built for the dual")

    monkeypatch.setattr(SupportMultiset, "of", refuse)
    for d in corpus + small_data:
        aubert_dual(d)


# ---------------------------------------------------------------------------
# irreducible A-parameters: duality swaps the two SL(2)'s


def _a_label(rid: str, d: int, a: int, b: int) -> CuspidalLabel:
    """The label of ``rho ⊠ S_a ⊠ S_b``, whose exponents are whole when a - b is even."""
    return CuspidalLabel(rid, d, Parity.INTEGRAL if (a - b) % 2 == 0 else Parity.HALF_INTEGRAL)


def _irreducible(rho: CuspidalLabel, a: int, b: int) -> LadderDatum:
    """``L(a, b, eta)`` for the one group and sign that make it valid."""
    valid = []
    for group, eta in itertools.product(GroupKind, (1, -1)):
        d = a_parameter_datum(group, rho, a, b, eta)
        try:
            validate_datum(d)
        except DatumValidationError:
            continue
        valid.append(d)
    [d] = valid
    return d


def test_dual_swaps_the_sl2s_of_an_irreducible_a_parameter():
    # the Aubert involution maps the packet of rho ⊠ S_a ⊠ S_b to that of
    # rho ⊠ S_b ⊠ S_a (Mœglin; Xu, Canad. J. Math. 69 (2017)), and on ladder
    # data the prediction is never ambiguous: one sign is valid on each side
    moved = 0
    for d, a, b in itertools.product((1, 2), range(1, 10), range(1, 10)):
        rho = _a_label("r", d, a, b)
        source = _irreducible(rho, a, b)
        assert aubert_dual(source) == canonical_form(_irreducible(rho, b, a)), (d, a, b)
        moved += aubert_dual(source) != source
    assert moved > 100  # not a fixed-point check


def test_dual_swaps_the_sl2s_label_by_label():
    # two labels, each carrying an irreducible A-parameter of sign +1, so
    # that the global sign holds: the dual is the two labels' duals
    groups = {0: GroupKind.SO_ODD, 1: GroupKind.SP}
    sizes = list(itertools.product(range(1, 6), repeat=2))
    for (a1, b1), (a2, b2) in itertools.product(sizes, repeat=2):
        p, q = _a_label("p", 1, a1, b1), _a_label("q", 2, a2, b2)
        group = groups[(a1 * b1 + 2 * a2 * b2) % 2]
        source = LadderDatum.of(group, _irreducible(p, a1, b1).blocks + _irreducible(q, a2, b2).blocks)
        dual = LadderDatum.of(group, _irreducible(p, b1, a1).blocks + _irreducible(q, b2, a2).blocks)
        validate_datum(source)
        assert aubert_dual(source) == canonical_form(dual), source


# ---------------------------------------------------------------------------
# duality commutes with Jacquet modules (Aubert, Trans. AMS 347 (1995))


def test_mw_dual_of_a_segment_is_its_unit_segments():
    # the twists 0, 1, 2 as one segment, and as three unit segments
    assert mw_dual([(0, 4)]) == ((0, 0), (2, 2), (4, 4))
    assert mw_dual([(0, 0), (2, 2), (4, 4)]) == ((0, 4),)
    assert mw_dual([(-1, 1)]) == ((-1, -1), (1, 1))
    assert mw_dual([(-1, -1), (1, 1)]) == ((-1, 1),)
    # not a ladder: of the two segments ending at 2, a chain starts at the
    # shorter, so [1, 2] + [2] and [1] + [2] + [2] swap
    assert mw_dual([(2, 4), (4, 4)]) == ((2, 2), (4, 4), (4, 4))
    assert mw_dual([(2, 2), (4, 4), (4, 4)]) == ((2, 4), (4, 4))


def _zelevinsky(term) -> tuple[tuple[int, int], ...]:
    """A term's GL ladder as sorted segments ``(b, e)`` of doubled twists."""
    return tuple(sorted((s.y.twice, s.x.twice) for s in term.gl_segments))


def _jacquet_parts(d, rho_id) -> Counter:
    """The Jacquet module along one label as a multiset of (GL part, canonical rest)."""
    if not d.has_block(rho_id):  # the dual of a block of dimension 0 is empty
        return Counter({((), canonical_form(d)): 1})
    parts = Counter()
    for term in jacquet_expansion(d, rho_id):
        parts[(_zelevinsky(term), canonical_form(term.datum))] += term.multiplicity
    return parts


def _is_ladder(m) -> bool:
    begins, ends = [b for b, _ in m], [e for _, e in m]
    return begins == sorted(set(begins)) and ends == sorted(set(ends))


def test_mw_dual_is_an_involution_on_ladders(corpus, small_data):
    # on every GL part of every Jacquet term, MW maps ladders to ladders
    # (Lapid–Mínguez) and undoes itself
    seen = set()
    for d in corpus + small_data:
        for block in d.blocks:
            seen.update(gl for gl, _ in _jacquet_parts(d, block.rho.id))
    assert len(seen) > 1000
    for m in seen:
        dual = mw_dual(m)
        assert _is_ladder(m) and _is_ladder(dual), m
        assert mw_dual(dual) == m


def test_jacquet_of_the_dual_is_the_dual_of_the_jacquet(corpus, small_corpus, small_data):
    # Jac(D(pi)) = sum of (D_GL(tau))^v (x) D(sigma) over the terms tau (x) sigma
    # of Jac(pi), along every label: D_GL is MW, and v negates and swaps the
    # ends of each segment
    golden = [golden_datum(data) for data in golden_data()]
    for d in corpus + small_corpus + small_data + golden:
        dual = aubert_dual(d)
        for block in d.blocks:
            rid = block.rho.id
            expected = Counter()
            for (gl, rest), count in _jacquet_parts(d, rid).items():
                contragredient = tuple(sorted((-e, -b) for b, e in mw_dual(gl)))
                expected[(contragredient, aubert_dual(rest))] += count
            assert _jacquet_parts(dual, rid) == expected, (d, rid)
