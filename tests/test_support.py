"""Discrete-series supports: worked reductions, order independence, projection."""


import pytest
from hypothesis import given, settings, strategies as st

from ladderrep import (
    GroupKind,
    LadderError,
    Parity,
    TemperedParam,
    TemperedPiece,
    SupportMultiset,
    UnsupportedParameterError,
    aubert_dual,
    determinantal_formula,
    hi,
    project_ps,
    standard_module_of,
    supp_discrete_series,
    supp_ladder,
)
from ladderrep import support as support_module
from ladderrep.formula import expansion_rows

from helpers import (
    HALF_LABEL,
    INT_LABEL,
    LABEL_POOL,
    dimension,
    exponent_dimension,
    golden_data,
    golden_datum,
    gr_combine,
    module,
    of_module,
    reference_supp_discrete_series,
    supp_standard_module,
    unipotent,
)


def param(temp, rho=INT_LABEL, group=None):
    pieces = tuple(TemperedPiece(rho, hi(str(e)).twice + 1, s) for e, s in temp)
    if group is None:
        dim = sum(p.rho.d * p.a for p in pieces)
        group = GroupKind.SP if dim % 2 else GroupKind.SO_ODD
    return TemperedParam(group, pieces)


def exponent_strings(s):
    return {rho.id: [str(v) for v in values] for rho, values in s.exponents}


def test_pair_rule_reduction():
    s = supp_discrete_series(param([("0", 1), ("1", 1), ("2", 1)]))
    assert exponent_strings(s) == {"1": ["-2", "-1", "-1", "0", "0", "1", "1", "2"]}
    assert s.core == unipotent([0], 0, 1, group=GroupKind.SP)


def test_alternating_staircase_is_cuspidal():
    s = supp_discrete_series(param([("0", -1), ("1", 1), ("2", -1)]))
    assert s.exponents == ()
    assert s.core == unipotent([0, 1, 2], 0, -1)


def test_three_hole_steps():
    s = supp_discrete_series(param([("1", -1), ("2", 1), ("3", -1)]))
    assert exponent_strings(s) == {"1": ["-3", "-2", "-1", "1", "2", "3"]}
    assert s.core == unipotent([0, 1, 2], 0, -1)
    # the same support through the graph route
    assert supp_ladder(unipotent([1, 2, 3], 0, -1)) == s


def test_half_integral_hole_with_positive_sign():
    s = supp_discrete_series(param([("1/2", 1)], rho=HALF_LABEL))
    assert exponent_strings(s) == {"1": ["-1/2", "1/2"]}
    assert s.core.blocks == ()


def test_half_integral_bottom_sign_minus_is_cuspidal():
    s = supp_discrete_series(param([("1/2", -1), ("3/2", 1), ("5/2", -1)], rho=HALF_LABEL))
    assert s.exponents == ()
    assert s.core == unipotent(["1/2", "3/2", "5/2"], 0, -1)


def test_multiplicity_rejected():
    t = TemperedParam(
        GroupKind.SO_ODD,
        (TemperedPiece(HALF_LABEL, 2, 1), TemperedPiece(HALF_LABEL, 2, 1)),
    )
    with pytest.raises(UnsupportedParameterError):
        supp_discrete_series(t)


def test_size_zero_rejected():
    t = TemperedParam(
        GroupKind.SO_ODD,
        (TemperedPiece(HALF_LABEL, 0, 1), TemperedPiece(HALF_LABEL, 2, 1)),
    )
    with pytest.raises(UnsupportedParameterError):
        supp_discrete_series(t)


# ---------------------------------------------------------------------------
# order independence of the reduction


def _rule_moves(pieces):
    """All (position, kind) pairs where a rule may fire."""
    moves = []
    for x in pieces:
        below = x - 1
        if below in pieces:
            if pieces[below] == pieces[x]:
                moves.append((x, "pair"))
        elif x.twice >= 2 or (x.twice == 1 and pieces[x] == 1):
            moves.append((x, "hole"))
    return moves


def _apply(pieces, move):
    x, kind = move
    out = dict(pieces)
    gained = []
    if kind == "pair":
        del out[x]
        del out[x - 1]
        gained.extend([x, -x])
        v = x - 1
        while not v < 1 - x:
            gained.extend([v, v])
            v = v - 1
    else:
        sign = out.pop(x)
        gained.extend([x, -x])
        if (x - 1).twice != -1:
            out[x - 1] = sign
    return out, gained


def _all_outcomes(pieces, acc, results, _memo=None):
    """Exhaust every rule-application order, memoized over reduction states."""
    if _memo is None:
        _memo = {}

    def explore(state):
        key = tuple(sorted((v.twice, s) for v, s in state.items()))
        if key in _memo:
            return _memo[key]
        moves = _rule_moves(state)
        if not moves:
            out = {((), key)}
        else:
            out = set()
            for move in moves:
                nxt, gained = _apply(state, move)
                for tail, terminal in explore(nxt):
                    merged = tuple(sorted(tail + tuple(v.twice for v in gained)))
                    out.add((merged, terminal))
        _memo[key] = out
        return out

    for tail, terminal in explore(dict(pieces)):
        merged = tuple(sorted(tail + tuple(v.twice for v in acc)))
        results.add((merged, terminal))


@pytest.mark.parametrize(
    "temp, rho",
    [
        ([("0", 1), ("1", 1), ("2", 1)], INT_LABEL),
        ([("0", 1), ("1", 1), ("2", -1), ("3", -1), ("4", 1)], INT_LABEL),
        ([("0", -1), ("1", -1), ("2", 1), ("3", 1), ("4", 1)], INT_LABEL),
        ([("1", 1), ("2", 1), ("4", 1), ("5", 1)], INT_LABEL),
        ([("1/2", 1), ("3/2", 1), ("5/2", -1), ("7/2", -1)], HALF_LABEL),
        ([("1/2", -1), ("3/2", -1), ("7/2", 1)], HALF_LABEL),
        ([("2", 1), ("3", 1), ("5", 1)], INT_LABEL),
    ],
)
def test_rule_order_never_matters(temp, rho):
    t = param(temp, rho=rho)
    pieces = {p.exponent: p.sign for p in t.pieces}
    results = set()
    _all_outcomes(pieces, [], results)
    assert len(results) == 1
    exponents, _terminal = next(iter(results))
    s = supp_discrete_series(t)
    engine = tuple(sorted(v.twice for _, values in s.exponents for v in values))
    assert engine == exponents


def test_order_independence_on_assembled_parameters(corpus):
    # every tempered part arising from corpus data reduces uniquely
    checked = 0
    for d in corpus[:60]:
        t = standard_module_of(d).tempered
        if not t.pieces or len(t.pieces) > 5:
            continue
        by_label = {}
        for p in t.pieces:
            by_label.setdefault(p.rho, {})[p.exponent] = p.sign
        for pieces in by_label.values():
            results = set()
            _all_outcomes(dict(pieces), [], results)
            assert len(results) == 1
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# the one-pass reduction against the rescanning reference


def _outcome(supp, t):
    try:
        return supp(t)
    except LadderError as error:
        return type(error), str(error)


def assert_reductions_agree(t):
    assert _outcome(supp_discrete_series, t) == _outcome(reference_supp_discrete_series, t)


def test_reduction_matches_reference_on_reachable_parts(corpus, small_corpus, small_data):
    data = corpus + small_corpus + small_data + [golden_datum(g) for g in golden_data()]
    parts = {m.tempered for d in data for m in determinantal_formula(d, projected=False).modules()}
    for t in parts:
        assert_reductions_agree(t)
    assert len(parts) > 500


@st.composite
def tempered_params(draw):
    """Pieces of positive size on one or two labels, at most one per size;
    some get a repeated piece or a size-0 piece, which the reduction refuses."""
    labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=2, unique=True))
    pieces = []
    for rho in labels:
        smallest = 1 if rho.parity is Parity.INTEGRAL else 2  # in the label's parity class
        for k in draw(st.sets(st.integers(0, 8), max_size=7)):
            pieces.append(TemperedPiece(rho, 2 * k + smallest, draw(st.sampled_from((1, -1)))))
    extra = draw(st.sampled_from(("none", "none", "repeat", "size-0")))
    if extra == "repeat" and pieces:
        pieces.append(draw(st.sampled_from(pieces)))
    if extra == "size-0" and labels[0].parity is Parity.HALF_INTEGRAL:
        pieces.append(TemperedPiece(labels[0], 0, draw(st.sampled_from((1, -1)))))
    dimension = sum(p.rho.d * p.a for p in pieces)
    return TemperedParam(GroupKind.SP if dimension % 2 else GroupKind.SO_ODD, tuple(pieces))


@settings(max_examples=400, deadline=None)
@given(tempered_params())
def test_reduction_matches_reference_on_random_parameters(t):
    assert_reductions_agree(t)


def test_reduction_outcomes_agree():
    # a support, the two refusals, and a core failing the datum clauses;
    # the remainder clauses cannot fail after the hole rule has run
    outcomes = [
        param([("0", 1), ("1", -1), ("2", -1)]),
        TemperedParam(GroupKind.SO_ODD, (TemperedPiece(HALF_LABEL, 2, 1),) * 2),
        TemperedParam(
            GroupKind.SO_ODD, (TemperedPiece(HALF_LABEL, 0, 1), TemperedPiece(HALF_LABEL, 2, 1))
        ),
        param([("0", -1), ("2", 1)]),
    ]
    for t in outcomes:
        assert_reductions_agree(t)
    assert [_outcome(supp_discrete_series, t)[1] for t in outcomes[1:]] == [
        "label '1': repeated piece of size 2 is unsupported",
        "parameter must be normalized (no size-0 pieces)",
        "[global-sign]: sign product over blocks is -1",
    ]


# ---------------------------------------------------------------------------
# supports of standard modules, projection


def test_supp_standard_module_worked():
    m = module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)])
    s = supp_standard_module(m)
    assert exponent_strings(s) == {"1": ["-2", "-1", "-1", "0", "0", "1", "1", "2"]}
    assert s.core == unipotent([0], 0, 1, group=GroupKind.SP)


def test_supp_pure_tempered():
    m = module(GroupKind.SP, INT_LABEL, [], [("0", 1), ("1", 1), ("2", 1)])
    assert supp_standard_module(m) == supp_discrete_series(m.tempered)


def test_supp_supercuspidal_module():
    m = module(GroupKind.SP, INT_LABEL, [], [("0", -1), ("1", 1), ("2", -1)])
    s = supp_standard_module(m)
    assert s.exponents == ()
    assert s.core == unipotent([0, 1, 2], 0, -1)


def test_dimension_conservation(corpus):
    for d in corpus[:80]:
        m = standard_module_of(d)
        s = supp_standard_module(m)
        total = exponent_dimension(s) + dimension(s.core.blocks)
        assert total == 2 * m.rank + m.group.dimension_parity


def test_projection_is_idempotent_and_linear(corpus):
    d = unipotent([0, 1, 2], 1, 1)
    target = supp_ladder(d)
    a = of_module(module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)]))
    b = of_module(
        module(GroupKind.SP, INT_LABEL, [], [("0", -1), ("1", 1), ("2", -1)])
    )
    mix = gr_combine([(2, a), (3, b)])
    once = project_ps(target, mix)
    assert once == project_ps(target, once)
    assert once == gr_combine(
        [(2, project_ps(target, a)), (3, project_ps(target, b))]
    )
    assert once.coefficient(a.modules()[0]) == 2
    assert len(once) == 1


def test_each_distinct_core_validated_once(monkeypatch):
    # the tempered parts of an expansion share few cores; each is checked once
    cores = []
    validate = support_module.validate_datum

    def counting_validate(d):
        cores.append(d)
        return validate(d)

    monkeypatch.setattr(support_module, "validate_datum", counting_validate)
    d = unipotent(range(8), 2, 1)
    projected = determinantal_formula(d)
    assert len(projected) > len(cores) > 0
    assert len(set(cores)) == len(cores)


def test_supports_build_no_multiset_beyond_the_returned_one(corpus, monkeypatch):
    # supp_ladder builds the support it returns; the dual and the projection
    # read supports on doubled ints
    built = []
    init = SupportMultiset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SupportMultiset, "__init__", counting_init)
    for d in corpus[::4]:
        built.clear()
        support = supp_ladder(d)
        assert len(built) == 1 and built[0] is support
        built.clear()
        aubert_dual(d)
        expansion_rows(d)
        assert built == []
