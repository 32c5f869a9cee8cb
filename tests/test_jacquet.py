"""Full Jacquet expansion: worked cases, bookkeeping, semisimplicity mechanism."""

import math

import pytest

from ladderrep import (
    DatumBlock,
    DatumValidationError,
    GroupKind,
    HalfInt,
    LadderDatum,
    LadderError,
    build_graph,
    derivative,
    jacquet_expansion,
    supp_ladder,
    validate_datum,
)
from ladderrep import datum as datum_module
from ladderrep.core import factor_key
from ladderrep.graph import _jacquet_walk, jacquet_rows, Rests

from helpers import (
    reference_derivative,
    reference_jacquet_expansion,
    reference_minimal_vertices,
    reference_validate_datum,
    replace_block,
    segment_exponents,
    unipotent,
)
from test_jsonio import _data


def gl_profile(term):
    return [((str(s.x), str(s.y))) for s in term.gl_segments]


def test_siegel_level_two_terms():
    d = unipotent([0, 1, 2], 1, 1)
    n = validate_datum(d)
    full = [t for t in jacquet_expansion(d, "1") if t.gl_size == n]
    assert len(full) == 2
    profiles = sorted(gl_profile(t) for t in full)
    assert profiles == [
        [("0", "-1"), ("1", "1"), ("2", "2")],
        [("0", "-2"), ("1", "1")],
    ]
    for t in full:
        assert t.datum == unipotent([0], 0, 1, group=GroupKind.SP)
        assert t.multiplicity == 1


def test_identity_term_present():
    d = unipotent([0, 1, 2], 1, 1)
    k0 = [t for t in jacquet_expansion(d, "1") if t.gl_size == 0]
    assert len(k0) == 1
    assert k0[0].gl_segments == () and k0[0].datum == d


def test_steinberg_type_has_two_terms():
    # the middle bound keeps only the identity drop and the single twist
    d = unipotent([1], 0, 1)
    terms = jacquet_expansion(d, "1")
    assert [gl_profile(t) for t in terms] == [[], [("1", "1")]]
    assert terms[1].datum == unipotent([0], 0, 1, group=GroupKind.SP)


def test_unknown_label_errors():
    d = unipotent([0, 1, 2], 1, 1)
    with pytest.raises(LadderError):
        jacquet_expansion(d, "zz")


def test_raw_mode_matches_merged(corpus):
    for d in corpus[:40]:
        for block in d.blocks:
            raw = reference_jacquet_expansion(d, block.rho.id, merged=False)
            merged = jacquet_expansion(d, block.rho.id)
            assert sum(t.multiplicity for t in merged) == len(raw)


def test_degree_bookkeeping(corpus):
    for d in corpus:
        n = validate_datum(d)
        for block in d.blocks:
            for term in jacquet_expansion(d, block.rho.id):
                assert term.gl_size + validate_datum(term.datum) == n


def test_gl_parts_are_ladders(corpus):
    for d in corpus[:80]:
        for block in d.blocks:
            for term in jacquet_expansion(d, block.rho.id):
                xs = [s.x.twice for s in term.gl_segments]
                ys = [s.y.twice for s in term.gl_segments]
                assert xs == sorted(xs) and len(set(xs)) == len(xs)
                assert ys == sorted(ys) and len(set(ys)) == len(ys)
                for s in term.gl_segments:
                    assert not s.x < s.y  # proper, units already dropped


def test_size_one_terms_match_derivatives(corpus):
    # the leading coefficients of the expansion are exactly the derivatives
    # found by graph surgery, which share no drop rule with the expansion
    for d in corpus:
        for block in d.blocks:
            terms = jacquet_expansion(d, block.rho.id)
            ones = {
                term.gl_segments[0].x: term.datum
                for term in terms
                if len(term.gl_segments) == 1 and term.gl_segments[0].length == 1
                and term.gl_size == block.rho.d
            }
            g = build_graph(block)
            expected = {
                a: reference_derivative(d, block.rho.id, a)
                for a, h in reference_minimal_vertices(g)
                if g.color(a, h) == 0
            }
            assert ones == expected


def test_distinct_supports_per_level(corpus):
    # the mechanism behind complete reducibility: within one GL size, the
    # (GL support, datum support) pairs never collide
    for d in corpus[:80]:
        for block in d.blocks:
            by_size = {}
            for term in jacquet_expansion(d, block.rho.id):
                gl_support = tuple(
                    sorted(v.twice for s in term.gl_segments for v in segment_exponents(s))
                )
                key = (gl_support, supp_ladder(term.datum))
                bucket = by_size.setdefault(term.gl_size, set())
                assert key not in bucket
                bucket.add(key)


def test_jacquet_terms_keep_the_support(corpus):
    # the exponents of a term's GL segments, with their negatives, plus the
    # support of its rest datum are the support of the datum: along every
    # label of corpus[:80], the exhaustive small sweep and the golden data
    terms = 0
    for d in _data(corpus[:80]):
        whole = supp_ladder(d)
        wanted = {rho.id: [v.twice for v in values] for rho, values in whole.exponents}
        for block in d.blocks:
            for term in jacquet_expansion(d, block.rho.id):
                rest = supp_ladder(term.datum)
                got = {rho.id: [v.twice for v in values] for rho, values in rest.exponents}
                for s in term.gl_segments:
                    got.setdefault(s.rho.id, []).extend(
                        w for v in segment_exponents(s) for w in (v.twice, -v.twice)
                    )
                assert {rid: sorted(values) for rid, values in got.items()} == wanted, (d, term)
                assert rest.core == whole.core, (d, term)
                terms += 1
    assert terms > 5000


def test_multiplicities_stay_one(corpus):
    # distinct drops always differ in their GL part, so the walk, which
    # merges nothing, never meets two equal terms: on the corpus, the
    # exhaustive small sweep and the golden data, along every label
    for d in _data(corpus):
        for block in d.blocks:
            terms = jacquet_expansion(d, block.rho.id)
            assert all(term.multiplicity == 1 for term in terms)
            assert len({(t.gl_segments, t.datum) for t in terms}) == len(terms)
            rows = _jacquet_walk(block)
            assert len({row[1] for row in rows}) == len(rows)


def test_row_segment_keys_are_factor_keys(corpus):
    # a row keys each GL segment of its term as a module key does
    for d in _data(corpus):
        for block in d.blocks:
            rid = block.rho.id
            _, rows = jacquet_rows(d, rid)
            assert [keys for _, keys, _ in rows] == [
                tuple(k for s in term.gl_segments for k in factor_key(rid, s.x.twice, s.y.twice))
                for term in jacquet_expansion(d, rid)
            ]


def test_rests_read_the_other_blocks_off_the_rank(corpus, small_corpus):
    # the sign and dimension of the other blocks are their fold over the
    # block checks; two-block data whose blocks carry sign -1 occur
    negative = 0
    for d in _data(corpus) + list(small_corpus):
        for pos, block in enumerate(d.blocks):
            rests = Rests(d, block.rho.id)
            others = d.block_checks[:pos] + d.block_checks[pos + 1 :]
            assert rests.sign == math.prod(sign for sign, _ in others), d
            assert rests.dimension == sum(dimension for _, dimension in others), d
            negative += rests.sign == -1
    assert negative > 0


def test_derivative_checks_each_block_once(corpus, monkeypatch):
    # derivative validates its datum on every call, from one check of each
    # block per datum object
    calls = []
    check_block = datum_module.check_block

    def counting(rho, xs, l, eta):
        calls.append(rho.id)
        return check_block(rho, xs, l, eta)

    monkeypatch.setattr(datum_module, "check_block", counting)
    for shared in corpus[:40]:
        d = LadderDatum(shared.group, shared.blocks)  # a new object, checked by no other test
        calls.clear()
        for block in d.blocks:
            for x in sorted({a for a, _ in build_graph(block).vertices()}):
                derivative(d, block.rho.id, x)
        derivative(d, "zz", HalfInt(0))
        assert sorted(calls) == sorted(b.rho.id for b in d.blocks)


@pytest.mark.parametrize("merged", [True, False], ids=["merged", "raw"])
def test_expansion_matches_reference(corpus, merged):
    # the corpus, the exhaustive small sweep and the golden data, along every label
    for d in _data(corpus):
        for block in d.blocks:
            # the per-tuple reference terms are the merged ones: no two drops merge
            expected = reference_jacquet_expansion(d, block.rho.id, merged)
            assert jacquet_expansion(d, block.rho.id) == expected


def _reference_rest(d, rho, key):
    """The rest datum of ``key`` by ``replace_block`` and the reference
    validation, or the validation failure."""
    kept, l, eta = key
    rest = replace_block(d, rho.id, DatumBlock(rho, tuple(HalfInt(y) for y in kept), l, eta))
    try:
        reference_validate_datum(rest)
    except DatumValidationError as err:
        return str(err)
    return rest


def _fast_rest(rests, key):
    try:
        return rests.datum(key)
    except DatumValidationError as err:
        return str(err)


def _bad_keys(key):
    """Hand-made keys one edit from a good one: eta flipped, l one higher,
    and the first exponent lowered until its pair sum is negative."""
    kept, l, eta = key
    yield kept, l, -eta
    yield kept, l + 1, eta
    if l and kept:
        low = kept[0] - 2 * ((kept[0] + kept[-1]) // 2 + 1)
        yield (low,) + kept[1:], l, eta


def test_rest_data_match_reference(corpus, small_corpus):
    # every distinct rest key of the corpora, the exhaustive small sweep and
    # the golden data: the rest built from its key is the re-sorted,
    # re-validated datum, and a bad key fails with the reference's message
    failures = set()
    for d in _data(corpus) + list(small_corpus):
        for block in d.blocks:
            rests = Rests(d, block.rho.id)
            keys = {rest_key for _, _, rest_key in _jacquet_walk(block)}
            for key in keys:
                assert _fast_rest(rests, key) == _reference_rest(d, block.rho, key)
                for bad in _bad_keys(key):
                    got = _fast_rest(rests, bad)
                    assert got == _reference_rest(d, block.rho, bad)
                    if isinstance(got, str):
                        failures.add(got.split("]")[0] + "]")
    assert failures >= {"[eta-forcing]", "[l-range]", "[pairing-positivity]", "[global-sign]"}
