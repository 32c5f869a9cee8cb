"""Datum validation, canonical form, and the attached Langlands data."""

import pytest
from hypothesis import given, strategies as st

from ladderrep import (
    DatumBlock,
    DatumValidationError,
    GroupKind,
    HalfInt,
    LadderDatum,
    Parity,
    canonical_form,
    hi,
    is_canonical,
    langlands_data_of,
    standard_module_of,
    validate_datum,
)
from ladderrep.jsonio import datum_from_json, datum_to_json
from ladderrep.render import render_module

from helpers import (
    INT_LABEL,
    build_corpus,
    module,
    random_datum,
    reference_langlands_data,
    reference_standard_module,
    reference_validate_datum,
    unipotent,
)
from test_jsonio import _data
import random


def test_validate_basic_rank():
    assert validate_datum(unipotent([0, 1, 2], 1, 1)) == 4


def test_validate_global_sign_violation():
    with pytest.raises(DatumValidationError) as err:
        validate_datum(unipotent([0, 1, 2], 1, -1))
    assert err.value.clause == "global-sign"


def test_validate_trivial_so5():
    d = unipotent(["-3/2", "-1/2", "1/2", "3/2"], 2, -1)
    assert d.group is GroupKind.SO_ODD
    assert validate_datum(d) == 2


@pytest.mark.parametrize(
    "exponents, l, eta, clause",
    [
        ([0, 1, "1/2"], 0, -1, "parity"),
        ([1, 0, 2], 0, -1, "ordering"),
        ([0, 1], 2, -1, "l-range"),
        ([-3, 0, 2], 1, 1, "pairing-positivity"),
        ([-2, -1, 3], 1, 1, "middle-positivity"),
        ([-1, 4], 1, 1, "eta-forcing"),
    ],
)
def test_validate_clause_names(exponents, l, eta, clause):
    d = unipotent(exponents, l, eta, group=GroupKind.SP, parity=Parity.INTEGRAL)
    with pytest.raises(DatumValidationError) as err:
        validate_datum(d)
    assert err.value.clause == clause


def _outcome(validate, d):
    """The rank, or the clause, block and full message of the failure."""
    try:
        return validate(d)
    except DatumValidationError as err:
        return err.clause, err.block_id, str(err)


def _mutations(d):
    """Data one edit away from ``d``: each block with eta flipped or zero,
    one exponent shifted by one or two half-steps either way, or ``l``
    changed by one or pushed past t/2; the group swapped; a label doubled."""
    for pos, b in enumerate(d.blocks):
        edits = [(b.exponents, b.l, e) for e in (-b.eta, 0)]
        edits += [(b.exponents, l, b.eta) for l in (b.l - 1, b.l + 1, b.t // 2 + 1)]
        for i in range(b.t):
            for step in (-2, -1, 1, 2):
                xs = list(b.exponents)
                xs[i] = xs[i] + HalfInt(step)
                edits.append((tuple(xs), b.l, b.eta))
        for xs, l, eta in edits:
            blocks = list(d.blocks)
            blocks[pos] = DatumBlock(b.rho, xs, l, eta)
            yield LadderDatum(d.group, tuple(blocks))
    other = GroupKind.SP if d.group is GroupKind.SO_ODD else GroupKind.SO_ODD
    yield LadderDatum(other, d.blocks)
    if d.blocks:
        yield LadderDatum(d.group, d.blocks + d.blocks[-1:])


def test_validate_matches_reference_on_mutations(corpus, small_corpus):
    # every message verbatim: the block clauses run on doubled ints, the
    # reference on HalfInt objects, as validation did before the split
    clauses = set()
    eta_messages = set()
    for d in list(corpus) + list(small_corpus):
        for m in _mutations(d):
            got = _outcome(validate_datum, m)
            assert got == _outcome(reference_validate_datum, m), m
            # the block checks are cached only on success, so a second call
            # fails with the same message
            assert _outcome(validate_datum, m) == got, m
            if isinstance(got, tuple):
                clauses.add(got[0])
                if got[0] == "eta-forcing":
                    eta_messages.add(got[2].split(": ", 1)[1])
    assert clauses == {
        "duplicate-label", "parity", "ordering", "l-range", "pairing-positivity",
        "middle-positivity", "eta-forcing", "global-sign", "dimension",
    }
    assert eta_messages == {
        "eta must be +1 or -1", "eta is forced to +1 here", "eta is forced to -1 when 2l = t",
    }


def test_validate_eta_forced_plus_at_minus_half_middle():
    d = unipotent(["-1/2", "3/2"], 0, -1)
    with pytest.raises(DatumValidationError) as err:
        validate_datum(d)
    assert err.value.clause == "eta-forcing"


def test_validate_dimension_parity():
    d = unipotent([0, 1, 2], 1, 1, group=GroupKind.SO_ODD)
    with pytest.raises(DatumValidationError) as err:
        validate_datum(d)
    assert err.value.clause == "dimension"


def test_duplicate_labels_rejected():
    b = DatumBlock(INT_LABEL, (hi("0"),), 0, 1)
    with pytest.raises(DatumValidationError):
        LadderDatum.of(GroupKind.SP, [b, b])


def test_empty_blocks_normalized_away():
    empty = DatumBlock(INT_LABEL, (), 0, 1)
    d = LadderDatum.of(GroupKind.SO_ODD, [empty])
    assert d.blocks == ()
    assert validate_datum(d) == 0


# ---------------------------------------------------------------------------
# standard module and Langlands data


def test_standard_module_single_pair():
    d = unipotent([0, 1, 2], 1, 1)
    assert standard_module_of(d) == module(GroupKind.SP, INT_LABEL, [("0", "-2")], [("1", 1)])


def test_standard_module_pure_tempered():
    d = unipotent([1], 0, 1)
    m = standard_module_of(d)
    assert m.segments == ()
    assert [(p.a, p.sign) for p in m.tempered.pieces] == [(3, 1)]


def test_standard_module_two_pairs():
    d = unipotent([-1, 0, 1, 2, 3], 2, 1)
    expected = module(GroupKind.SP, INT_LABEL, [("-1", "-3"), ("0", "-2")], [("1", 1)])
    assert standard_module_of(d) == expected


def test_langlands_data_keeps_datum_order():
    d = unipotent([-1, 0, 1, 2, 3], 2, 1)
    data = langlands_data_of(d)
    assert [(str(s.x), str(s.y)) for s in data.segments] == [("-1", "-3"), ("0", "-2")]


def test_langlands_alternating_signs():
    d = unipotent([0, 1, 2], 0, -1)
    data = langlands_data_of(d)
    assert [(p.a, p.sign) for p in data.tempered.pieces] == [(1, -1), (3, 1), (5, -1)]


def test_standard_module_matches_reference(corpus, small_corpus):
    # the key path of the engine against the object path of the tests, on
    # the corpora, the exhaustive small sweep (with non-canonical data) and
    # the golden data
    for d in _data(corpus) + list(small_corpus):
        assert standard_module_of(d) == reference_standard_module(d), d
        assert langlands_data_of(d) == reference_langlands_data(d), d


def test_render_module_notation():
    d = unipotent([0, 1, 2], 1, 1)
    assert render_module(standard_module_of(d)) == "Δ[0,-2]⋊π(1^+)"


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_form_drops_middle_minus_half():
    degenerate = unipotent(["-1/2", "3/2", "5/2", "7/2"], 0, 1)
    validate_datum(degenerate)
    reduced = canonical_form(degenerate)
    assert reduced == unipotent(["3/2", "5/2", "7/2"], 0, -1)
    assert standard_module_of(reduced) == standard_module_of(degenerate)
    assert not is_canonical(degenerate) and is_canonical(reduced)


def test_canonical_form_empties_block():
    degenerate = unipotent(["-1/2"], 0, 1, group=GroupKind.SO_ODD)
    validate_datum(degenerate)
    assert canonical_form(degenerate).blocks == ()


def test_canonical_form_identity_on_paired_minus_half():
    d = unipotent(["-3/2", "-1/2", "1/2", "3/2"], 2, -1)
    assert canonical_form(d) == d


# ---------------------------------------------------------------------------
# serialization


def test_datum_json_round_trip_example():
    d = unipotent([0, 1, 2], 1, 1)
    assert datum_from_json(datum_to_json(d)) == d


def test_datum_json_shorthand():
    d = datum_from_json({"group": "Sp", "X": ["0", "1", "2"], "l": 1, "eta": 1})
    assert d == unipotent([0, 1, 2], 1, 1)


def test_datum_json_full_schema():
    d = datum_from_json(
        {
            "group": "Sp",
            "blocks": [
                {
                    "rho": {"id": "1", "d": 1, "parity": "integral"},
                    "X": ["0", "1", "2"],
                    "l": 1,
                    "eta": 1,
                }
            ],
        }
    )
    assert d == unipotent([0, 1, 2], 1, 1)


def test_langlands_segments_never_degenerate(corpus):
    for d in corpus:
        data = langlands_data_of(d)
        assert len(data.segments) == sum(b.l for b in d.blocks)
        for seg in data.segments:
            assert seg.length >= 1
            assert seg.x.twice + seg.y.twice < 0


@given(st.integers(0, 10_000))
def test_datum_json_round_trip_random(seed):
    d = random_datum(random.Random(seed))
    assert datum_from_json(datum_to_json(d)) == d


def test_corpus_is_valid_and_canonical():
    for d in build_corpus(seed=5, size=40):
        validate_datum(d)
        assert is_canonical(d)
