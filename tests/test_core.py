"""Core vocabulary: exact arithmetic, conventions, combinations."""

import pytest
from hypothesis import given, strategies as st

from ladderrep import (
    CuspidalLabel,
    DatumBlock,
    GroupKind,
    HalfInt,
    InvalidSegmentError,
    LadderError,
    NotStandardModuleError,
    Parity,
    RankMismatchError,
    Segment,
    TemperedParam,
    TemperedPiece,
    GrothendieckElement,
    hi,
    is_zero,
)
from ladderrep.core import check_module_key, factor_key, middle_keys, piece_keys

from helpers import (
    HALF_LABEL,
    INT_LABEL,
    LABEL_POOL,
    gr_combine,
    make_standard_module,
    module,
    normalize_tempered,
    of_module,
    reference_block_parts,
    steinberg_product,
)


halfints = st.integers(min_value=-40, max_value=40).map(HalfInt)


@given(halfints, halfints)
def test_halfint_arithmetic_is_exact(a, b):
    assert (a + b).twice == a.twice + b.twice
    assert (a - b).twice == a.twice - b.twice
    assert (-a).twice == -a.twice
    assert (a < b) == (a.twice < b.twice)


@given(halfints)
def test_halfint_str_parse_round_trip(a):
    assert HalfInt.parse(str(a)) == a


def test_halfint_parse_forms():
    assert hi("3/2").twice == 3
    assert hi("-1") == HalfInt.whole(-1)
    assert hi("0").twice == 0
    assert str(hi("-3/2")) == "-3/2"
    assert hi("2") + 1 == hi("3")
    assert hi("1/2") - 1 == hi("-1/2")
    assert hi(" +3 ").twice == 6
    assert hi("\u22125/2").twice == -5
    for text in ("4/2", "0/2", "-2/2"):
        with pytest.raises(ValueError):
            hi(text)
    # only ASCII decimal digits, with no inner spaces or underscores
    for text in ("1_0", "1_1/2", "\u0663", "\u0663/2", " 3 /2", "3/ 2", "- 3", "3.0", "", "/2", "0x3"):
        with pytest.raises(ValueError):
            hi(text)


def test_halfint_mixed_arithmetic():
    assert 3 - hi("1") == hi("2")
    assert 1 + hi("1/2") == hi("3/2")
    for other in (3.5, "3"):
        with pytest.raises(TypeError):
            other - hi("1")
        with pytest.raises(TypeError):
            hi("1") - other
        with pytest.raises(TypeError):
            other + hi("1")


def test_halfint_comparison_rejects_ints():
    with pytest.raises(TypeError):
        hi("1") < 0  # noqa: B015


def test_label_requires_positive_d():
    with pytest.raises(LadderError):
        CuspidalLabel("x", 0, Parity.INTEGRAL)


# ---------------------------------------------------------------------------
# Steinberg conventions


def test_normalize_steinberg_proper():
    seg = Segment(INT_LABEL, hi("0"), hi("-2"))
    assert steinberg_product([seg]) == (seg,)


def test_normalize_steinberg_unit():
    seg = Segment(INT_LABEL, hi("-1"), hi("0"))
    assert steinberg_product([seg]) == ()


def test_normalize_steinberg_zero():
    seg = Segment(HALF_LABEL, hi("-3/2"), hi("1/2"))
    assert is_zero(steinberg_product([seg]))
    assert is_zero(steinberg_product([Segment(HALF_LABEL, hi("1/2"), hi("-1/2")), seg]))


def test_normalize_steinberg_idempotent_on_proper():
    segs = [Segment(INT_LABEL, hi("3"), hi("-1")), Segment(INT_LABEL, hi("0"), hi("-2"))]
    product = steinberg_product(segs)
    assert steinberg_product(product) == product


def test_segment_parity_mismatch_rejected():
    with pytest.raises(InvalidSegmentError):
        Segment(INT_LABEL, hi("1/2"), hi("-1/2"))
    with pytest.raises(InvalidSegmentError):
        Segment(HALF_LABEL, hi("1"), hi("0"))


# ---------------------------------------------------------------------------
# tempered parameters


def _param(group, temp, rho=INT_LABEL):
    return TemperedParam(
        group, tuple(TemperedPiece(rho, hi(str(e)).twice + 1, s) for e, s in temp)
    )


def test_normalize_tempered_drops_positive_size_zero():
    t = _param(GroupKind.SO_ODD, [("-1/2", 1), ("1/2", 1)], HALF_LABEL)
    out = normalize_tempered(t)
    assert [p.a for p in out.pieces] == [2]


def test_normalize_tempered_negative_size_zero_kills():
    t = _param(GroupKind.SO_ODD, [("-1/2", -1), ("1/2", -1)], HALF_LABEL)
    assert is_zero(normalize_tempered(t))


def test_normalize_tempered_identity_without_size_zero():
    t = _param(GroupKind.SP, [("0", 1), ("1", -1), ("2", -1)])
    assert normalize_tempered(t) is t


def test_tempered_equal_pieces_must_share_sign():
    with pytest.raises(LadderError):
        TemperedParam(
            GroupKind.SO_ODD,
            (TemperedPiece(HALF_LABEL, 2, 1), TemperedPiece(HALF_LABEL, 2, -1)),
        )


def test_tempered_dimension_parity_checked():
    with pytest.raises(LadderError):
        _param(GroupKind.SP, [("1/2", 1)], HALF_LABEL)  # dimension 2 is even


def test_tempered_negative_size_rejected():
    with pytest.raises(LadderError):
        TemperedPiece(INT_LABEL, -1, 1)


# ---------------------------------------------------------------------------
# standard modules


def test_make_standard_module_basic():
    m = module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)])
    assert len(m.segments) == 1
    assert m.rank == 4


def test_make_standard_module_drops_units():
    m = module(GroupKind.SP, INT_LABEL, [("-1", "0")], [("1", 1)])
    assert m.segments == ()


def test_make_standard_module_zero_segment_annihilates():
    t = _param(GroupKind.SP, [("1", 1)])
    out = make_standard_module([Segment(INT_LABEL, hi("-3"), hi("0"))], t)
    assert is_zero(out)
    # a zero factor wins over a segment with non-negative exponent sum
    bad = Segment(INT_LABEL, hi("2"), hi("-1"))
    assert is_zero(make_standard_module([bad, Segment(INT_LABEL, hi("-3"), hi("0"))], t))


def test_make_standard_module_rejects_nonnegative_sum():
    t = _param(GroupKind.SP, [("1", 1)])
    with pytest.raises(NotStandardModuleError):
        make_standard_module([Segment(INT_LABEL, hi("2"), hi("-1"))], t)


def test_make_standard_module_rejects_bad_sign_product():
    t = _param(GroupKind.SP, [("0", -1), ("1", 1), ("2", 1)])
    with pytest.raises(NotStandardModuleError):
        make_standard_module([], t)


@given(st.permutations(list(range(4))))
def test_make_standard_module_order_invariant(order):
    segs = [("0", "-2"), ("-1", "-2"), ("-2", "-3"), ("1", "-2")]
    base = module(GroupKind.SO_ODD, INT_LABEL, segs, [])
    shuffled = module(GroupKind.SO_ODD, INT_LABEL, [segs[i] for i in order], [])
    assert base == shuffled


def test_canonical_key_orders_by_sum_then_start():
    m = module(GroupKind.SO_ODD, INT_LABEL, [("1", "-2"), ("0", "-2"), ("0", "-1")], [])
    keys = [(s.x.twice + s.y.twice, s.x.twice) for s in m.segments]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# the engine's normalization rules on keys, against the object reference


def _segments(spec, rho=INT_LABEL):
    return [Segment(rho, hi(x), hi(y)) for x, y in spec]


def _engine_product(segments):
    """The segment keys of a product under ``factor_key``, sorted; None for zero."""
    keys = [factor_key(s.rho.id, s.x.twice, s.y.twice) for s in segments]
    if None in keys:
        return None
    return tuple(sorted(k for key in keys for k in key))


def _reference_product(segments):
    product = steinberg_product(segments)
    return None if is_zero(product) else tuple(s.sort_key() for s in product)


def _tempered_keys(param):
    """``piece_keys`` of a parameter's pieces, sorted, against the reference's
    normalized parameter."""
    keys = piece_keys(param.pieces[0].rho.id, [(p.a, p.sign) for p in param.pieces])
    reference = normalize_tempered(param)
    expected = None if is_zero(reference) else reference.sort_key()
    return (None if keys is None else tuple(sorted(keys))), expected


# the inputs of the convention tests above and of the module tests below
SEGMENT_CASES = [
    _segments([("0", "-2")]),
    _segments([("-1", "0")]),
    _segments([("-3/2", "1/2")], HALF_LABEL),
    _segments([("1/2", "-1/2"), ("-3/2", "1/2")], HALF_LABEL),
    _segments([("3", "-1"), ("0", "-2")]),
    _segments([("-3", "0")]),
    _segments([("2", "-1"), ("-3", "0")]),
    _segments([("2", "-1")]),
    _segments([("0", "-2"), ("-1", "-2"), ("-2", "-3"), ("1", "-2")]),
    _segments([("1", "-2"), ("0", "-2"), ("0", "-1")]),
]

PIECE_CASES = [
    _param(GroupKind.SO_ODD, [("-1/2", 1), ("1/2", 1)], HALF_LABEL),
    _param(GroupKind.SO_ODD, [("-1/2", -1), ("1/2", -1)], HALF_LABEL),
    _param(GroupKind.SP, [("0", 1), ("1", -1), ("2", -1)]),
    _param(GroupKind.SP, [("1", 1)]),
    _param(GroupKind.SP, [("0", -1), ("1", 1), ("2", 1)]),
]


@pytest.mark.parametrize("segments", SEGMENT_CASES)
def test_factor_key_matches_reference_on_cases(segments):
    for seg in segments:
        assert _engine_product([seg]) == _reference_product([seg])
    assert _engine_product(segments) == _reference_product(segments)
    assert _engine_product(segments[::-1]) == _reference_product(segments)


def test_factor_key_conventions():
    assert factor_key("1", 0, -4) == ((-4, 0, "1", -4),)
    assert factor_key("1", 2, 2) == ((4, 2, "1", 2),)  # [1, 1], of length 1
    assert factor_key("1", -2, 0) == ()  # the unit [-1, 0]
    assert factor_key("1", -6, 0) is None  # [-3, 0] is zero
    assert factor_key("1", -6, -2) is None  # y = x + 2, the first zero


@pytest.mark.parametrize("param", PIECE_CASES)
def test_piece_keys_match_reference_on_cases(param):
    keys, expected = _tempered_keys(param)
    assert keys == expected


def test_piece_keys_conventions():
    assert piece_keys("1", [(0, 1), (2, 1)]) == (("1", 2, -1),)
    assert piece_keys("1", [(0, -1), (2, -1)]) is None
    assert piece_keys("1", []) == ()
    with pytest.raises(AssertionError):
        piece_keys("1", [(-1, 1)])


@given(
    st.lists(
        st.tuples(st.sampled_from(LABEL_POOL), st.integers(-6, 6), st.integers(-6, 6)),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_factor_key_matches_reference(spec, rng):
    segments = []
    for rho, x, y in spec:
        shift = 0 if rho.parity is Parity.INTEGRAL else 1
        segments.append(Segment(rho, HalfInt(2 * x + shift), HalfInt(2 * y + shift)))
    for seg in segments:
        assert _engine_product([seg]) == _reference_product([seg])
    expected = _reference_product(segments)
    assert _engine_product(segments) == expected
    rng.shuffle(segments)
    assert _engine_product(segments) == expected


def _pieces_param(rho, sizes_signs):
    """A parameter with the given pieces, signs made equal on equal sizes and
    the group chosen by the dimension."""
    sign_of: dict[int, int] = {}
    pieces = tuple(TemperedPiece(rho, a, sign_of.setdefault(a, s)) for a, s in sizes_signs)
    group = GroupKind.SP if sum(rho.d * p.a for p in pieces) % 2 else GroupKind.SO_ODD
    return TemperedParam(group, pieces)


@given(
    st.sampled_from(LABEL_POOL),
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), min_size=1, max_size=6),
)
def test_piece_keys_match_reference(rho, spec):
    # sizes a with exponent (a - 1) / 2 in the label's parity class: 0 only for half-integral labels
    shift = 1 if rho.parity is Parity.INTEGRAL else 0
    keys, expected = _tempered_keys(_pieces_param(rho, [(2 * k + shift, s) for k, s in spec]))
    assert keys == expected


@given(
    st.sampled_from(LABEL_POOL),
    st.lists(st.integers(0, 12), min_size=1, max_size=7, unique=True),
    st.sampled_from((1, -1)),
    st.randoms(use_true_random=False),
)
def test_middle_keys_match_reference(rho, steps, eta, rng):
    # doubled exponents of the label's parity from -1/2 (or 0) up; a random
    # increasing zone of their 1-based indices
    low = 0 if rho.parity is Parity.INTEGRAL else -1
    xs = [low + 2 * k for k in sorted(steps)]
    zone = tuple(sorted(rng.sample(range(1, len(xs) + 1), rng.randint(0, len(xs)))))
    block = DatumBlock(rho, tuple(HalfInt(xs[i - 1]) for i in zone), 0, eta)
    _, _, fixed = reference_block_parts(block, tuple(range(1, len(zone) + 1)))
    keys = middle_keys(xs, rho.id, eta, zone)
    reference = normalize_tempered(_pieces_param(rho, fixed))
    expected = None if is_zero(reference) else reference.sort_key()
    assert (None if keys is None else tuple(sorted(keys))) == expected


# ---------------------------------------------------------------------------
# the assembly checks on a module's key


LABELS = {"1": INT_LABEL}


def test_check_module_key_returns_rank():
    m = module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)])
    assert check_module_key(GroupKind.SP, LABELS, m.sort_key()) == m.rank == 4
    assert check_module_key(GroupKind.SP, LABELS, m.sort_key(), rank=4) == 4


def _failure(call):
    with pytest.raises(LadderError) as info:
        call()
    return type(info.value), str(info.value)


# Each key breaks one clause; the second column builds the same module the
# way the engine did before the checks ran on keys, and both must fail alike.
BROKEN_KEYS = [
    (
        "non-negative exponent sum",
        GroupKind.SP,
        (((0, 2, "1", -2),), (("1", 3, -1),)),
        None,
        lambda: make_standard_module(
            [Segment(INT_LABEL, hi("1"), hi("-1"))],
            TemperedParam(GroupKind.SP, (TemperedPiece(INT_LABEL, 3, 1),)),
        ),
        NotStandardModuleError,
        "segment [1,-1] has non-negative exponent sum",
    ),
    (
        "sign product -1",
        GroupKind.SP,
        ((), (("1", 3, 1),)),
        None,
        lambda: make_standard_module(
            [], TemperedParam(GroupKind.SP, (TemperedPiece(INT_LABEL, 3, -1),))
        ),
        NotStandardModuleError,
        "tempered part violates the sign-product condition",
    ),
    (
        "wrong rank",
        GroupKind.SP,
        (((-2, 0, "1", -2),), (("1", 3, -1),)),
        5,
        lambda: GrothendieckElement.from_items(
            5, [(module(GroupKind.SP, INT_LABEL, [("0", "-1")], [("1", 1)]), 1)]
        ),
        RankMismatchError,
        "term of rank 3 in an element of rank 5",
    ),
    (
        "opposite signs on one (label, size)",
        GroupKind.SP,
        ((), (("1", 3, -1), ("1", 3, 1), ("1", 1, -1))),
        None,
        lambda: TemperedParam(
            GroupKind.SP,
            (
                TemperedPiece(INT_LABEL, 3, 1),
                TemperedPiece(INT_LABEL, 3, -1),
                TemperedPiece(INT_LABEL, 1, 1),
            ),
        ),
        LadderError,
        "pieces with equal (label, size) ('1', 3) carry opposite signs",
    ),
    (
        "wrong dimension parity",
        GroupKind.SO_ODD,
        ((), (("1", 3, -1),)),
        None,
        lambda: TemperedParam(GroupKind.SO_ODD, (TemperedPiece(INT_LABEL, 3, 1),)),
        LadderError,
        "parameter dimension 3 has the wrong parity for SOodd",
    ),
    (
        "segment parity",
        GroupKind.SP,
        (((-2, 1, "1", -3),), (("1", 3, -1),)),
        None,
        lambda: Segment(INT_LABEL, hi("1/2"), hi("-3/2")),
        InvalidSegmentError,
        "segment [1/2,-3/2] does not match the parity of label '1'",
    ),
]


@pytest.mark.parametrize(
    "group, key, rank, build, error, message",
    [case[1:] for case in BROKEN_KEYS],
    ids=[case[0] for case in BROKEN_KEYS],
)
def test_check_module_key_fails_like_assembly(group, key, rank, build, error, message):
    assert _failure(lambda: check_module_key(group, LABELS, key, rank)) == (error, message)
    assert _failure(build) == (error, message)


# ---------------------------------------------------------------------------
# integer combinations


def _elem(coeff=1):
    return of_module(
        module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)]), coeff
    )


def test_gr_combine_cancellation():
    total = gr_combine([(1, _elem()), (-1, _elem())])
    assert len(total) == 0 and total.rank == 4


def test_gr_combine_two_terms():
    other = of_module(
        module(GroupKind.SP, INT_LABEL, [("0", "-1")], [("2", 1)])
    )
    total = gr_combine([(1, _elem()), (1, other)])
    assert len(total) == 2


def test_gr_combine_coefficients_add():
    total = gr_combine([(2, _elem()), (-1, _elem())])
    assert total.terms[0][1] == 1


def test_gr_combine_rank_mismatch():
    small = of_module(module(GroupKind.SP, INT_LABEL, [], [("1", 1)]))
    with pytest.raises(RankMismatchError):
        gr_combine([(1, _elem()), (1, small)])


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)), max_size=6))
def test_gr_combine_commutative_associative(spec):
    mods = [
        module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)]),
        module(GroupKind.SP, INT_LABEL, [("0", "-1")], [("2", 1)]),
        module(GroupKind.SP, INT_LABEL, [("1", "-2")], [("0", 1)]),
    ]
    elems = [(c, of_module(mods[i])) for c, i in spec]
    forward = gr_combine(elems, rank=4)
    backward = gr_combine(list(reversed(elems)), rank=4)
    assert forward == backward
    if len(elems) >= 2:
        left = gr_combine([(1, gr_combine(elems[:1], rank=4)), (1, gr_combine(elems[1:], rank=4))])
        assert left == forward
