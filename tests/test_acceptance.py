"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact integer combinatorics; the full suite runs
in seconds.
"""

import random

from ladderrep import (
    GroupKind,
    GrothendieckElement,
    aubert_dual,
    build_graph,
    derivative,
    determinantal_formula,
    enumerate_sigma,
    gl_determinantal_formula,
    graph_to_datum,
    is_supercuspidal,
    is_zero,
    jacquet_expansion,
    parse_colored_vertices,
    sigma_table,
    standard_module_of,
    supp_ladder,
    validate_datum,
)
from ladderrep.core import Parity

from helpers import (
    golden_datum,
    golden_module,
    load_golden,
    reference_minimal_vertices,
    sign_condition_holds,
    segment_exponents,
    supp_standard_module,
    unipotent,
)
from test_formula import _shift_module, _sigma_sets_agree, gl, _oracle_t2, _oracle_t3, _random_gl_ladder

GOLDEN_FILES = [
    "table_sp8_l1.json",
    "table_so5_trivial.json",
    "table_sp14_l2.json",
    "table_sp24_l1.json",
]


def _passed(number, message):
    print(f"[criterion {number}] PASS - {message}")


def test_criterion_1_table_reproduction():
    total = 0
    for name in GOLDEN_FILES:
        data = load_golden(name)
        datum = golden_datum(data)
        rho = datum.blocks[0].rho
        rows = sigma_table(datum)
        assert len(rows) == data["sigma_count"] == len(data["rows"])
        for engine_row, expected in zip(rows, data["rows"]):
            assert list(engine_row.sigma.perms[0]) == expected["sigma"]
            assert engine_row.sigma.sign == expected["sign"]
            summands = [
                golden_module(s, datum.group, rho) for s in expected["summands"]
            ]
            assert list(engine_row.summands) == summands
        total += len(rows)
    assert total == 6 + 6 + 24 + 20
    _passed(1, f"{total} table rows reproduced exactly (6+6+24+20)")


def test_criterion_2_final_identities():
    counts = []
    for name in GOLDEN_FILES:
        data = load_golden(name)
        datum = golden_datum(data)
        rho = datum.blocks[0].rho
        element = determinantal_formula(datum)
        assert len(element) == data["projected_count"]
        assert all(c in (1, -1) for _, c in element.terms)
        assert element.coefficient(standard_module_of(datum)) == 1
        if data.get("projected") is not None:
            expected = {
                golden_module(entry, datum.group, rho): entry["coeff"]
                for entry in data["projected"]
            }
            assert dict(element.terms) == expected
        counts.append(len(element))
    assert counts == [6, 4, 24, 15]
    _passed(2, f"projected identities exact; term counts {counts}")


def test_criterion_3_jacquet_example():
    datum = unipotent([0, 1, 2], 1, 1)
    n = validate_datum(datum)
    full = [t for t in jacquet_expansion(datum, "1") if t.gl_size == n]
    profiles = sorted(
        tuple((str(s.x), str(s.y)) for s in t.gl_segments) for t in full
    )
    assert profiles == [
        (("0", "-1"), ("1", "1"), ("2", "2")),
        (("0", "-2"), ("1", "1")),
    ]
    assert all(
        t.datum == unipotent([0], 0, 1, group=GroupKind.SP) and t.multiplicity == 1
        for t in full
    )
    _passed(3, "top-level expansion has exactly the two displayed terms")


def test_criterion_4_aubert(corpus):
    worked = unipotent([0, 1, 4], 1, 1)
    dual = aubert_dual(worked)
    assert dual == unipotent([-4, -3, 0, 1, 2, 3, 4], 3, 1)
    segs = [(str(s.x), str(s.y)) for s in standard_module_of(dual).segments]
    assert segs == [("-4", "-4"), ("-3", "-3"), ("0", "-2")]
    assert len(corpus) >= 200
    groups = {d.group for d in corpus}
    parities = {b.rho.parity for d in corpus for b in d.blocks}
    assert groups == {GroupKind.SP, GroupKind.SO_ODD}
    assert parities == {Parity.INTEGRAL, Parity.HALF_INTEGRAL}
    fixed = 0
    for d in corpus:
        image = aubert_dual(d)
        assert aubert_dual(image) == d
        if is_supercuspidal(d):
            assert image == d
            fixed += 1
    for d in (
        unipotent([0, 1, 2], 0, -1),
        unipotent(["1/2", "3/2", "5/2"], 0, -1),
        unipotent([0, 1, 2, 3], 0, 1),
    ):
        assert is_supercuspidal(d) and aubert_dual(d) == d
        fixed += 1
    _passed(4, f"worked dual exact; involution on {len(corpus)} data; {fixed} supercuspidal fixed points")


def test_criterion_5_graph_round_trip(corpus):
    for d in corpus:
        for block in d.blocks:
            assert graph_to_datum(build_graph(block)) == block
    figure_one = unipotent(["1/2", "5/2", "7/2"], 0, -1).blocks[0]
    figure_two = unipotent([0, 1, 2, 3, 4], 1, -1).blocks[0]
    for block in (figure_one, figure_two):
        colored = {(a, h + 3): c for (a, h), c in build_graph(block).colored_map().items()}
        assert parse_colored_vertices(block.rho, colored) == block
    _passed(5, f"round trip on {sum(len(d.blocks) for d in corpus)} blocks; both figures parse")


def test_criterion_6_support_consistency(corpus):
    for d in corpus:
        assert supp_ladder(d) == supp_standard_module(standard_module_of(d))
    for name in ("table_sp8_l1.json", "table_sp24_l1.json"):
        data = load_golden(name)
        datum = golden_datum(data)
        rho = datum.blocks[0].rho
        target = supp_ladder(datum)
        projected = determinantal_formula(datum)
        rows = sigma_table(datum)
        for entry in data["killed"]:
            m = golden_module(entry, datum.group, rho)
            assert any(m in row.summands for row in rows)
            assert supp_standard_module(m) != target
            assert projected.coefficient(m) == 0
        kept = [m for m, _ in projected.terms]
        assert all(supp_standard_module(m) == target for m in kept)
    _passed(6, f"ladder and standard-module supports agree on {len(corpus)} data; projection verdicts reproduced")


def test_criterion_7_derivative_laws(corpus):
    double_checked = compat_checked = skipped = mismatches = 0
    for d in corpus:
        raw = None
        for block in d.blocks:
            g = build_graph(block)
            for a, h in reference_minimal_vertices(g):
                if g.color(a, h) != 0:
                    continue
                step = derivative(d, block.rho.id, a)
                assert step is not None
                assert derivative(step, block.rho.id, a) is None
                double_checked += 1
                if not _sigma_sets_agree(d, step):
                    skipped += 1
                    continue
                if raw is None:
                    raw = determinantal_formula(d, projected=False)
                items = []
                for m, c in raw.terms:
                    shifted = _shift_module(m, block.rho.id, a)
                    if not is_zero(shifted):
                        items.append((shifted, c))
                image = GrothendieckElement.from_items(validate_datum(step), items)
                if image != determinantal_formula(step, projected=False):
                    mismatches += 1
                    print(f"compatibility mismatch at {d} / {block.rho.id} / {a}")
                else:
                    compat_checked += 1
    assert mismatches == 0
    assert double_checked > 200 and compat_checked > 50
    _passed(
        7,
        f"D after D vanishes at {double_checked} spots; shift image verified "
        f"{compat_checked} times ({skipped} threshold crossings restricted)",
    )


def test_criterion_8_structural_invariants(corpus):
    terms_seen = 0
    for d in corpus:
        n = validate_datum(d)
        for sigma in enumerate_sigma(d):
            from ladderrep import assemble_i_sigma

            for summand in assemble_i_sigma(d, sigma):
                if is_zero(summand):
                    continue
                keys = [(p.rho.id, p.a) for p in summand.tempered.pieces]
                assert len(keys) == len(set(keys))
                assert sign_condition_holds(summand.tempered)
                assert summand.rank == n
                terms_seen += 1
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
    _passed(8, f"{terms_seen} assembled summands well-formed; supports distinct per level")


def test_criterion_9_gl_formula():
    single = gl_determinantal_formula(gl([("3", "0")]))
    assert len(single) == 1 and single.terms[0][1] == 1
    speh = gl_determinantal_formula(gl([("0", "0"), ("1", "1")]))
    flat = {
        tuple((str(s.x), str(s.y)) for s in product): coeff
        for product, coeff in speh.terms
    }
    assert flat == {(("0", "0"), ("1", "1")): 1, (("1", "0"),): -1}
    rng = random.Random(424242)
    for _ in range(10):
        t = rng.choice([2, 3])
        ladder = _random_gl_ladder(rng, t)
        oracle = _oracle_t2(ladder) if t == 2 else _oracle_t3(ladder)
        assert gl_determinantal_formula(ladder) == oracle
    _passed(9, "unit case, two-term case, and 10 randomized hand expansions agree")
