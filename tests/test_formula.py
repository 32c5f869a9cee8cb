"""The signed expansion: membership, assembly, structural laws, GL side."""

import itertools
import random

import pytest

from ladderrep import (
    CuspidalLabel,
    DatumBlock,
    DatumValidationError,
    GLLadder,
    GroupKind,
    GrothendieckElement,
    HalfInt,
    LadderDatum,
    LadderError,
    Parity,
    Segment,
    SigmaElement,
    StandardModule,
    TemperedParam,
    TemperedPiece,
    assemble_i_sigma,
    build_graph,
    derivative,
    determinantal_formula,
    enumerate_sigma,
    gl_determinantal_formula,
    hi,
    is_zero,
    sigma_table,
    standard_module_of,
    validate_datum,
)
from ladderrep import formula as formula_module
from ladderrep.formula import _block_shares, _block_walk, expansion_rows, gl_rows, permutation_sign

from helpers import (
    HALF_LABEL,
    INT_LABEL,
    block_perms,
    gl_combination_from_items,
    golden_data,
    golden_datum,
    make_standard_module,
    module,
    reference_assemble,
    reference_block_parts,
    reference_block_shares,
    reference_expansion,
    reference_gl_expansion,
    reference_minimal_vertices,
    reference_perm_shares,
    sign_condition_holds,
    steinberg_product,
    unipotent,
)


# ---------------------------------------------------------------------------
# membership


def oracle_memberships(block):
    """Direct filter of the full symmetric group by the three conditions."""
    t, l = block.t, block.l
    out = []
    for perm in itertools.permutations(range(1, t + 1)):
        ok = all(perm[i] < perm[i + 1] for i in range(l - 1))
        ok = ok and all(perm[i] < perm[i + 1] for i in range(l, t - l - 1))
        for idx in range(1, t + 1):
            x = block.x(idx)
            position = perm.index(idx) + 1
            if x.twice <= -2 and position > l:
                ok = False
            if x.twice == -1 and block.eta == -1 and l + 1 <= position <= t - l:
                ok = False
        if ok:
            out.append(perm)
    return out


def test_membership_all_of_s3():
    d = unipotent([0, 1, 2], 1, 1)
    assert [s.perms[0] for s in enumerate_sigma(d)] == sorted(
        itertools.permutations((1, 2, 3))
    )


def test_membership_first_slot_fixed():
    d = unipotent(["-3/2", "-1/2", "1/2", "3/2"], 2, -1)
    sigmas = [s.perms[0] for s in enumerate_sigma(d)]
    assert len(sigmas) == 6
    assert all(p[0] == 1 for p in sigmas)


def test_membership_count_twenty():
    d = unipotent([0, 1, 2, 3, 4], 1, -1)
    assert len(enumerate_sigma(d)) == 20


def test_membership_matches_oracle(corpus):
    for d in corpus:
        sigmas = enumerate_sigma(d)
        assert sigmas == sorted(sigmas, key=SigmaElement.sort_key)  # the engine never sorts
    for d in corpus[:100]:
        for block, expected in zip(d.blocks, [oracle_memberships(b) for b in d.blocks]):
            got = sorted(
                {s.perms[d.blocks.index(block)] for s in enumerate_sigma(d)}
            )
            assert got == sorted(expected)


def test_multi_block_product_structure():
    rng = random.Random(31)
    from helpers import random_datum

    while True:
        d = random_datum(rng, max_blocks=2, max_t=4)
        if len(d.blocks) == 2:
            break
    per_block = [len(oracle_memberships(b)) for b in d.blocks]
    assert len(enumerate_sigma(d)) == per_block[0] * per_block[1]


def test_signs_multiply():
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((2, 3, 1)) == 1
    assert permutation_sign((1,)) == 1


# ---------------------------------------------------------------------------
# assembly examples


def find_sigma(d, perm):
    for s in enumerate_sigma(d):
        if s.perms[0] == tuple(perm):
            return s
    raise AssertionError("permutation not admissible")


def test_assembly_inverted_pair():
    d = unipotent([0, 1, 2], 1, 1)
    out = assemble_i_sigma(d, find_sigma(d, (2, 3, 1)))
    expected = [
        module(GroupKind.SP, INT_LABEL, [], [("0", 1), ("1", 1), ("2", 1)]),
        module(GroupKind.SP, INT_LABEL, [], [("0", -1), ("1", -1), ("2", 1)]),
    ]
    assert out == expected


def test_assembly_size_zero_summand_vanishes():
    d = unipotent(["-3/2", "-1/2", "1/2", "3/2"], 2, -1)
    out = assemble_i_sigma(d, find_sigma(d, (1, 3, 2, 4)))
    assert len(out) == 2
    assert out[0] == module(
        GroupKind.SO_ODD, HALF_LABEL, [("-3/2", "-3/2")], [("1/2", 1)]
    )
    assert is_zero(out[1])


def test_assembly_two_pair_case():
    d = unipotent([-1, 0, 1, 2, 3], 2, 1)
    out = assemble_i_sigma(d, find_sigma(d, (1, 4, 5, 3, 2)))
    expected = [
        module(GroupKind.SP, INT_LABEL, [], [("1", 1), ("2", 1), ("3", 1)]),
        module(GroupKind.SP, INT_LABEL, [], [("1", -1), ("2", -1), ("3", 1)]),
    ]
    assert out == expected


# ---------------------------------------------------------------------------
# structural invariants


def test_identity_contribution(corpus):
    for d in corpus[:60]:
        projected = determinantal_formula(d)
        assert projected.coefficient(standard_module_of(d)) == 1


def test_assembled_parameters_multiplicity_free_and_signed(corpus):
    for d in corpus[:60]:
        for sigma in enumerate_sigma(d):
            for summand in assemble_i_sigma(d, sigma):
                if is_zero(summand):
                    continue
                seen = set()
                for p in summand.tempered.pieces:
                    key = (p.rho.id, p.a)
                    assert key not in seen
                    seen.add(key)
                assert sign_condition_holds(summand.tempered)


def test_rank_consistency(corpus):
    for d in corpus[:60]:
        n = validate_datum(d)
        for m in determinantal_formula(d).modules():
            assert m.rank == n


def test_global_sign_congruence_exhaustive():
    # the parity identity connecting the datum sign clause with the
    # tempered sign product: floor(t/2) + l = (t-2l)(t-2l-1)/2 mod 2
    for t in range(13):
        for l in range(t // 2 + 1):
            u = t - 2 * l
            assert (t // 2 + l) % 2 == (u * (u - 1) // 2) % 2


def test_coefficient_profile_reported(corpus):
    # the projected coefficients are expected, not proven, to be +-1 beyond
    # the published cases; this pins the audit of the whole corpus
    profile = {}
    for d in corpus:
        for _, c in determinantal_formula(d).terms:
            profile[c] = profile.get(c, 0) + 1
    assert profile == {1: 515, -1: 351}


@pytest.mark.parametrize("projected", [True, False])
def test_expansion_matches_reference(corpus, small_corpus, projected):
    golden = [golden_datum(data) for data in golden_data()]
    for d in corpus + small_corpus + golden:
        assert determinantal_formula(d, projected) == reference_expansion(d, projected)


def _block(label, xs, l, eta):
    return DatumBlock(label, tuple(hi(x) for x in xs), l, eta)


BRANCH_BLOCKS = [
    # zero and unit factors, confined exponents <= -1
    _block(INT_LABEL, ["-2", "-1", "0", "1", "2", "3", "4"], 2, -1),
    # a unit factor only
    _block(INT_LABEL, ["-1", "0", "1"], 1, 1),
    # a size-0 piece in an inverted pair (its -1 choice is absent), and one
    # of sign +1 in the middle zone (dropped)
    _block(HALF_LABEL, ["-1/2", "1/2", "3/2"], 1, 1),
    # eta = -1 with a -1/2 exponent, barred from the middle zone
    _block(HALF_LABEL, ["-1/2", "1/2", "3/2", "5/2", "7/2"], 1, -1),
    # a size-0 piece of sign -1 in the middle zone kills the whole zone; no
    # valid datum reaches it (its exponents do not increase), the walk must agree anyway
    _block(HALF_LABEL, ["1/2", "-1/2", "3/2", "5/2"], 1, 1),
    _block(INT_LABEL, ["0", "1", "2"], 0, -1),  # l = 0
    _block(INT_LABEL, ["0", "1", "2", "3"], 2, -1),  # 2l = t
]


def test_block_shares_matches_reference(corpus, small_corpus, small_data):
    # the table walk gives the same keys, coefficients (0 included) and first-seen order
    golden = [golden_datum(data) for data in golden_data()]
    blocks = [b for d in corpus + small_corpus + small_data + golden for b in d.blocks]
    for block in blocks + BRANCH_BLOCKS:
        assert list(_block_shares(block).items()) == list(reference_block_shares(block).items())


def test_block_walk_matches_reference(corpus, small_data):
    # each permutation in the reference order, with its sign and the shares
    # of its surviving summands in sign-choice order
    golden = [golden_datum(data) for data in golden_data()]
    empty = 0
    for d in corpus + small_data + golden:
        for block in d.blocks:
            walked = list(_block_walk(block))
            perms = block_perms(block)
            assert [perm for perm, _, _ in walked] == perms
            assert [sign for _, sign, _ in walked] == [permutation_sign(perm) for perm in perms]
            assert [shares for _, _, shares in walked] == [
                reference_perm_shares(block, perm) for perm in perms
            ]
            empty += sum(not shares for _, _, shares in walked)
    assert empty > 0


def test_sigma_table_checks_and_builds_each_distinct_key_once(monkeypatch):
    # the summands repeat across rows; each distinct key is checked once, in
    # row order, and its module built once
    checked, built = [], []
    check = formula_module.check_module_key
    init = StandardModule.__init__

    def counting_check(group, labels, key, rank=None):
        checked.append(key)
        return check(group, labels, key, rank)

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(formula_module, "check_module_key", counting_check)
    monkeypatch.setattr(StandardModule, "__init__", counting_init)
    two_blocks = LadderDatum.of(
        GroupKind.SP,
        [
            _block(CuspidalLabel("a", 1, Parity.INTEGRAL), ["0", "1", "2"], 1, 1),
            _block(CuspidalLabel("b", 2, Parity.HALF_INTEGRAL), ["1/2", "3/2", "5/2"], 1, 1),
        ],
    )
    for d in (unipotent(range(6), 1, 1), two_blocks):
        checked.clear()
        built.clear()
        keys = [m.sort_key() for row in sigma_table(d) for m in row.summands]
        assert len(set(keys)) < len(keys)
        assert checked == list(dict.fromkeys(keys))
        assert len(built) == len(checked)


def test_negative_piece_size_asserts_under_a_zero_factor():
    # no valid datum reaches a negative piece size; on this block every
    # permutation has a zero factor in its first pair, and the pair (3, 2)
    # of some of them is inverted into a piece of size -3
    block = _block(INT_LABEL, ["-3", "0", "-2", "1", "1"], 2, 1)
    for shares in (_block_shares, reference_block_shares):
        with pytest.raises(AssertionError, match="negative piece size"):
            shares(block)
    # assembly reads every pair of a permutation, and asserts exactly where
    # the reference part reader does
    d = LadderDatum.of(GroupKind.SP, [block])
    asserted = 0
    for perm in block_perms(block):
        try:
            reference_block_parts(block, perm)
        except AssertionError:
            asserted += 1
            with pytest.raises(AssertionError, match="negative piece size"):
                assemble_i_sigma(d, SigmaElement((perm,), permutation_sign(perm)))
    assert asserted > 0


def test_enumerate_sigma_names_the_violated_clause():
    # the block above is invalid: every enumeration names the clause before
    # any piece size is read
    d = LadderDatum.of(GroupKind.SP, [_block(INT_LABEL, ["-3", "0", "-2", "1", "1"], 2, 1)])
    for enumerate_ in (enumerate_sigma, sigma_table, expansion_rows):
        with pytest.raises(DatumValidationError, match=r"^\[ordering\]"):
            enumerate_(d)


def test_assembly_matches_reference(corpus, small_corpus, small_data):
    # the key path lists the same summands as the object path: same length,
    # the zero sentinel at the same positions, equal modules elsewhere
    golden = [golden_datum(data) for data in golden_data()]
    zeros = 0
    for d in corpus + small_corpus + small_data + golden:
        for sigma in enumerate_sigma(d):
            got = assemble_i_sigma(d, sigma)
            assert got == reference_assemble(d, sigma), (d, sigma)
            zeros += sum(map(is_zero, got))
    assert zeros > 0


def test_modules_built_track_the_output(monkeypatch):
    # a module is built for each output term only: not for the keys the
    # projection drops, nor for the keys whose coefficients cancel
    d = unipotent(range(8), 2, 1)
    assert d.group is GroupKind.SO_ODD
    built = []
    init = StandardModule.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StandardModule, "__init__", counting_init)
    projected = determinantal_formula(d)
    assert len(built) == len(projected)
    built.clear()
    raw = determinantal_formula(d, projected=False)
    assert len(built) == len(raw)
    distinct_keys = _block_shares(d.blocks[0])
    assert len(projected) < len(raw) < len(distinct_keys)


# ---------------------------------------------------------------------------
# derivative compatibility of the raw expansion


def _shift_module(m, rho_id, lam):
    """Replace the exponent lam by lam - 1 at the removed slot.

    Each term exposes the slot in exactly one feature (a segment start lam,
    a segment end -lam, or a tempered piece at lam); a term with no such
    feature hid the slot inside a dropped unit factor, and its image is the
    zero representation (the unit becomes a zero factor after the shift).
    """
    hits = 0
    segments = []
    for seg in m.segments:
        x, y = seg.x, seg.y
        if seg.rho.id == rho_id and x == lam:
            x = lam - 1
            hits += 1
        if seg.rho.id == rho_id and y == -lam:
            y = 1 - lam
            hits += 1
        segments.append(Segment(seg.rho, x, y))
    pieces = []
    for p in m.tempered.pieces:
        if p.rho.id == rho_id and p.exponent == lam:
            pieces.append(TemperedPiece(p.rho, p.a - 2, p.sign))
            hits += 1
        else:
            pieces.append(p)
    if hits == 0:
        from ladderrep import ZERO_REP

        return ZERO_REP
    assert hits == 1
    return make_standard_module(segments, TemperedParam(m.group, tuple(pieces)))


def _sigma_sets_agree(d, d2):
    if tuple(b.t for b in d.blocks) != tuple(b.t for b in d2.blocks):
        return False
    return {s.perms for s in enumerate_sigma(d)} == {s.perms for s in enumerate_sigma(d2)}


def test_derivative_compatibility(corpus):
    checked = skipped = 0
    for d in corpus:
        for block in d.blocks:
            g = build_graph(block)
            for a, h in reference_minimal_vertices(g):
                if g.color(a, h) != 0:
                    continue
                d2 = derivative(d, block.rho.id, a)
                assert d2 is not None
                if not _sigma_sets_agree(d, d2):
                    skipped += 1
                    continue
                raw = determinantal_formula(d, projected=False)
                image_items = []
                for m, c in raw.terms:
                    shifted = _shift_module(m, block.rho.id, a)
                    if not is_zero(shifted):
                        image_items.append((shifted, c))
                image = GrothendieckElement.from_items(
                    validate_datum(d2), image_items
                )
                assert image == determinantal_formula(d2, projected=False)
                checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# general-linear side


def gl(segs, rho=INT_LABEL):
    return GLLadder(rho, tuple((hi(str(x)), hi(str(y))) for x, y in segs))


def test_gl_single_segment():
    out = gl_determinantal_formula(gl([("3", "0")]))
    assert len(out) == 1
    product, coeff = out.terms[0]
    assert coeff == 1 and [(str(s.x), str(s.y)) for s in product] == [("3", "0")]


def test_gl_speh_two_terms():
    out = gl_determinantal_formula(gl([("0", "0"), ("1", "1")]))
    assert len(out) == 2
    as_strings = {
        tuple((str(s.x), str(s.y)) for s in product): coeff
        for product, coeff in out.terms
    }
    assert as_strings == {
        (("0", "0"), ("1", "1")): 1,
        (("1", "0"),): -1,
    }


def test_gl_generic_two_by_two():
    out = gl_determinantal_formula(gl([("0", "-3"), ("2", "0")]))
    direct = {}
    for product, coeff in out.terms:
        direct[tuple((str(s.x), str(s.y)) for s in product)] = coeff
    # products sort canonically by exponent sum, then start
    assert direct == {
        (("0", "-3"), ("2", "0")): 1,
        (("2", "-3"), ("0", "0")): -1,
    }


def test_gl_unit_swap_drops_segment():
    out = gl_determinantal_formula(gl([("0", "-3"), ("2", "1")]))
    direct = {
        tuple((str(s.x), str(s.y)) for s in product): coeff
        for product, coeff in out.terms
    }
    # the swapped product contains the unit factor [0,1], which vanishes
    assert direct == {
        (("0", "-3"), ("2", "1")): 1,
        (("2", "-3"),): -1,
    }


def test_gl_ladder_condition_enforced():
    with pytest.raises(LadderError):
        gl([("0", "0"), ("1", "0")])


def _oracle_t2(ladder):
    (x1, y1), (x2, y2) = ladder.segments
    items = []
    for coeff, pairs in [
        (1, [(x1, y1), (x2, y2)]),
        (-1, [(x1, y2), (x2, y1)]),
    ]:
        product = steinberg_product(Segment(ladder.rho, x, y) for x, y in pairs)
        if not is_zero(product):
            items.append((product, coeff))
    return gl_combination_from_items(items)


def _oracle_t3(ladder):
    (x1, y1), (x2, y2), (x3, y3) = ladder.segments
    spec = [
        (1, [(x1, y1), (x2, y2), (x3, y3)]),
        (-1, [(x1, y1), (x2, y3), (x3, y2)]),
        (-1, [(x1, y2), (x2, y1), (x3, y3)]),
        (1, [(x1, y2), (x2, y3), (x3, y1)]),
        (1, [(x1, y3), (x2, y1), (x3, y2)]),
        (-1, [(x1, y3), (x2, y2), (x3, y1)]),
    ]
    items = []
    for coeff, pairs in spec:
        product = steinberg_product(Segment(ladder.rho, x, y) for x, y in pairs)
        if not is_zero(product):
            items.append((product, coeff))
    return gl_combination_from_items(items)


def _random_gl_ladder(rng, t):
    rho = rng.choice([INT_LABEL, HALF_LABEL])
    shift = 1 if rho is HALF_LABEL else 0
    xs = sorted(rng.sample(range(-4, 7), t))
    ys = sorted(rng.sample(range(-6, 5), t))
    return GLLadder(
        rho,
        tuple(
            (HalfInt(2 * x + shift), HalfInt(2 * y + shift)) for x, y in zip(xs, ys)
        ),
    )


def test_gl_matches_hand_expansions():
    rng = random.Random(2024)
    for _ in range(10):
        t = rng.choice([2, 3])
        ladder = _random_gl_ladder(rng, t)
        oracle = _oracle_t2(ladder) if t == 2 else _oracle_t3(ladder)
        assert gl_determinantal_formula(ladder) == oracle


def _gl_band(rho, t):
    """The band ladder [i, i-2], i = 0..t-1, shifted into the label's parity class."""
    shift = 0 if rho.parity is Parity.INTEGRAL else 1
    return GLLadder(
        rho, tuple((HalfInt(2 * i + shift), HalfInt(2 * i - 4 + shift)) for i in range(t))
    )


# every permutation has a zero factor: the first row has no column, or the
# first two rows share one
EMPTY_GL_LADDERS = [
    gl([("0", "3")]),
    gl([("0", "-1"), ("1", "3")]),
    gl([("-2", "-2"), ("0", "3"), ("1", "4")]),
]


def test_gl_matches_reference():
    rng = random.Random(5151)
    ladders = [_random_gl_ladder(rng, rng.randint(1, 7)) for _ in range(300)]
    ladders += [_gl_band(rho, t) for rho in (INT_LABEL, HALF_LABEL) for t in range(1, 9)]
    empty = 0
    for ladder in ladders + EMPTY_GL_LADDERS:
        out = gl_determinantal_formula(ladder)
        assert out == reference_gl_expansion(ladder)
        empty += not out.terms
    assert empty > len(EMPTY_GL_LADDERS)
    for ladder in EMPTY_GL_LADDERS:
        assert gl_determinantal_formula(ladder).terms == ()


def test_gl_walk_meets_each_product_once():
    # the walk merges nothing, which holds because no product comes from two
    # permutations: the walked products are pairwise distinct, each +-1
    rng = random.Random(7373)
    ladders = [_random_gl_ladder(rng, rng.randint(1, 7)) for _ in range(300)]
    ladders += [_gl_band(rho, t) for rho in (INT_LABEL, HALF_LABEL) for t in range(1, 10)]
    walked = 0
    for ladder in ladders:
        rows = gl_rows(ladder)
        assert len({product for product, _ in rows}) == len(rows)
        assert {c for _, c in rows} <= {1, -1}
        walked += len(rows)
    assert walked > 2 * 24576  # the two band ladders with t = 9
