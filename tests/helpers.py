"""Shared test utilities: compact builders, golden-file loading, a
deterministic generator of random valid ladder data, and reference
implementations the engine is checked against."""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from ladderrep import (
    CuspidalLabel,
    DatumBlock,
    DatumValidationError,
    GLCombination,
    GLLadder,
    GrothendieckElement,
    GroupKind,
    HalfInt,
    JacquetTerm,
    LadderDatum,
    LadderError,
    LanglandsData,
    NotStandardModuleError,
    Parity,
    RankMismatchError,
    StandardModule,
    SupportMultiset,
    TemperedParam,
    TemperedPiece,
    Segment,
    SigmaElement,
    UnsupportedParameterError,
    ZERO_REP,
    ZeroRep,
    build_graph,
    canonical_form,
    derivative,
    hi,
    is_supercuspidal,
    is_zero,
    parse_colored_vertices,
    supp_ladder,
    validate_datum,
)
from ladderrep.core import sum_coefficients
from ladderrep.formula import permutation_sign
from ladderrep.jsonio import _obj, _write_top, _Writer

GOLDEN_DIR = Path(__file__).parent / "golden"

INT_LABEL = CuspidalLabel("1", 1, Parity.INTEGRAL)
HALF_LABEL = CuspidalLabel("1", 1, Parity.HALF_INTEGRAL)


def dimension(blocks: Iterable[DatumBlock]) -> int:
    """The parameter dimension of the blocks: ``d`` times the sum of ``2x + 1``
    over the exponents, summed over the blocks."""
    return sum((sum(x.twice for x in b.exponents) + b.t) * b.rho.d for b in blocks)


def unipotent(exponents, l, eta, group=None, parity=None):
    """Single-block datum over the trivial GL(1) label."""
    exps = tuple(hi(s) if isinstance(s, str) else hi(str(s)) for s in exponents)
    if parity is None:
        parity = Parity.INTEGRAL if (not exps or exps[0].is_integer) else Parity.HALF_INTEGRAL
    label = CuspidalLabel("1", 1, parity)
    block = DatumBlock(label, exps, l, eta)
    if group is None:
        group = GroupKind.SP if dimension([block]) % 2 else GroupKind.SO_ODD
    return LadderDatum.of(group, [block])


# ---------------------------------------------------------------------------
# standard modules on objects: the reference for the key path of ``core``
# (``factor_key``, ``piece_keys``, ``check_module_key``, ``terms_of_keys``)


def steinberg_product(segments: Iterable[Segment]) -> tuple[Segment, ...] | ZeroRep:
    """Normalize a product of Steinberg factors by segment length: a factor
    of length 0 is the unit and is dropped, one of negative length is zero
    and absorbs the product, and the rest are sorted by ``Segment.sort_key``."""
    kept = []
    for seg in segments:
        if seg.length < 0:
            return ZERO_REP
        if seg.length > 0:
            kept.append(seg)
    return tuple(sorted(kept, key=Segment.sort_key))


def normalize_tempered(t: TemperedParam) -> TemperedParam | ZeroRep:
    """Resolve the size-0 convention pieces: one with sign -1 annihilates the
    parameter, and those with sign +1 are dropped."""
    if any(p.a == 0 and p.sign == -1 for p in t.pieces):
        return ZERO_REP
    kept = tuple(p for p in t.pieces if p.a > 0)
    if len(kept) == len(t.pieces):
        return t
    return TemperedParam(t.group, kept)


def sign_condition_holds(t: TemperedParam) -> bool:
    """Product of signs over the pieces of positive size equals +1."""
    prod = 1
    for p in t.pieces:
        if p.a >= 1:
            prod *= p.sign
    return prod == 1


def make_standard_module(
    segments: Iterable[Segment], tempered: TemperedParam
) -> StandardModule | ZeroRep:
    """Assemble a standard module from objects, normalizing all degeneracies.

    A zero factor (a zero Steinberg factor or an annihilating size-0 piece)
    absorbs the whole module, even one with a bad segment; unit factors are
    dropped.  Every kept segment must then have x + y < 0, and the tempered
    part must satisfy the sign-product condition, each refused with the
    message ``check_module_key`` gives.
    """
    temp = normalize_tempered(tempered)
    kept = steinberg_product(segments)
    if is_zero(temp) or is_zero(kept):
        return ZERO_REP
    for seg in kept:
        if seg.x.twice + seg.y.twice >= 0:
            raise NotStandardModuleError(f"segment [{seg.x},{seg.y}] has non-negative exponent sum")
    if not sign_condition_holds(temp):
        raise NotStandardModuleError("tempered part violates the sign-product condition")
    return StandardModule(kept, temp)


def reference_datum_parts(d: LadderDatum) -> tuple[list[Segment], TemperedParam]:
    """The identity permutation's parts as objects: the pair segments in datum
    order, and the middle pieces, signs alternating from eta."""
    segments = []
    pieces = []
    for b in d.blocks:
        identity = tuple(range(1, b.t + 1))
        block_segments, _, fixed = reference_block_parts(b, identity)
        segments += (Segment(b.rho, HalfInt(x), HalfInt(y)) for x, y in block_segments)
        pieces += (TemperedPiece(b.rho, a, sign) for a, sign in fixed)
    return segments, TemperedParam(d.group, tuple(pieces))


def reference_standard_module(d: LadderDatum) -> StandardModule | ZeroRep:
    """The reference for ``standard_module_of``."""
    return make_standard_module(*reference_datum_parts(d))


def reference_langlands_data(d: LadderDatum) -> LanglandsData:
    """The reference for ``langlands_data_of``."""
    segments, tempered = reference_datum_parts(d)
    return LanglandsData(tuple(segments), normalize_tempered(tempered))


def module(group, rho, segs, temp) -> StandardModule:
    """Build a standard module from compact (x, y) and (exponent, sign) lists."""
    segments = [Segment(rho, hi(str(x)), hi(str(y))) for x, y in segs]
    pieces = tuple(TemperedPiece(rho, hi(str(e)).twice + 1, s) for e, s in temp)
    result = make_standard_module(segments, TemperedParam(group, pieces))
    assert not is_zero(result)
    return result


def a_parameter_datum(
    group: GroupKind, rho: CuspidalLabel, a: int, b: int, eta: int
) -> LadderDatum:
    """The ladder datum ``L(a, b, eta)`` of the A-parameter
    ``rho ⊠ S_a ⊠ S_b``, not validated: its L-parameter is the sum over
    ``k < b`` of ``rho |.|^((b-1)/2 - k) ⊠ S_a``, so X is ``(a-b)/2,
    (a-b)/2 + 1, ..., (a+b)/2 - 1`` (b exponents) with ``l = b // 2``."""
    exponents = tuple(HalfInt(a - b + 2 * k) for k in range(b))
    return LadderDatum.of(group, [DatumBlock(rho, exponents, b // 2, eta)])


def replace_block(d: LadderDatum, rho_id: str, new: DatumBlock | None) -> LadderDatum:
    """``d`` with the block of ``rho_id`` replaced by ``new``, an empty or
    absent block dropped, and the blocks re-sorted by ``LadderDatum.of``."""
    blocks = [b for b in d.blocks if b.rho.id != rho_id]
    if new is not None and not new.is_empty:
        blocks.append(new)
    return LadderDatum.of(d.group, blocks)


def reference_validate_datum(d: LadderDatum) -> int:
    """Every defining clause checked on ``HalfInt`` exponents, block by block
    and then globally: the reference for ``validate_datum`` and the rest
    check of the Jacquet expansion, clause, message and rank alike."""
    ids = [b.rho.id for b in d.blocks]
    if len(set(ids)) != len(ids):
        raise DatumValidationError("duplicate-label", None, "labels must be distinct")
    sign_product = 1
    for b in d.blocks:
        rid = b.rho.id
        for x in b.exponents:
            if not b.rho.parity.matches(x):
                raise DatumValidationError(
                    "parity", rid, f"exponent {x} lies outside the label's parity class"
                )
        for i in range(1, b.t):
            if not b.exponents[i - 1] < b.exponents[i]:
                raise DatumValidationError("ordering", rid, "exponents must strictly increase")
        if not 0 <= 2 * b.l <= b.t:
            raise DatumValidationError("l-range", rid, f"need 0 <= 2l <= t, got l={b.l}, t={b.t}")
        for j in range(1, b.l + 1):
            if b.x(j).twice + b.x(b.t - j + 1).twice < 0:
                raise DatumValidationError(
                    "pairing-positivity",
                    rid,
                    f"x_{j} + x_{b.t - j + 1} = {b.x(j)} + {b.x(b.t - j + 1)} < 0",
                )
        for i in range(b.l + 1, b.t - b.l + 1):
            if b.x(i).twice < -1:
                raise DatumValidationError(
                    "middle-positivity", rid, f"middle exponent x_{i} = {b.x(i)} < -1/2"
                )
        if b.eta not in (1, -1):
            raise DatumValidationError("eta-forcing", rid, "eta must be +1 or -1")
        forced_plus = b.is_empty or (
            b.l + 1 <= b.t - b.l and b.x(b.l + 1) == HalfInt(-1)
        )
        if forced_plus and b.eta != 1:
            raise DatumValidationError("eta-forcing", rid, "eta is forced to +1 here")
        if not b.is_empty and 2 * b.l == b.t and b.eta != -1:
            raise DatumValidationError("eta-forcing", rid, "eta is forced to -1 when 2l = t")
        block_sign = (-1) ** (b.t // 2 + b.l) * (b.eta ** b.t)
        sign_product *= block_sign
    if sign_product != 1:
        raise DatumValidationError("global-sign", None, "sign product over blocks is -1")
    total = dimension(d.blocks)
    if total % 2 != d.group.dimension_parity:
        raise DatumValidationError(
            "dimension", None, f"total dimension {total} has the wrong parity for {d.group.value}"
        )
    n = (total - d.group.dimension_parity) // 2
    if n < 0:
        raise DatumValidationError("dimension", None, f"negative rank from dimension {total}")
    return n


def assert_has_vertex_matches_vertices(g) -> None:
    """``has_vertex`` agrees with ``vertices`` on a box one step wider than the graph."""
    vertices = set(g.vertices())
    ends = [e.twice for row in g.rows for e in (row.left, row.right)]
    heights = [row.height for row in g.rows]
    for twice in range(min(ends) - 2, max(ends) + 3, 2):
        for h in range(min(heights) - 1, max(heights) + 2):
            a = HalfInt(twice)
            assert g.has_vertex(a, h) == ((a, h) in vertices), (a, h)


def reference_vertices(g) -> list[tuple[HalfInt, int]]:
    """Every vertex, row by row, each row stepped down from its right end by
    ``HalfInt`` subtraction: the reference for ``LadderGraph.vertices``."""
    out = []
    for row in g.rows:
        a = row.right
        while not a < row.left:
            out.append((a, row.height))
            a = a - 1
    return out


def reference_minimal_vertices(g) -> list[tuple[HalfInt, int]]:
    """The vertices without a predecessor, tested one by one: nothing to the
    right in the row and nothing up-left."""
    return [
        (a, h)
        for a, h in reference_vertices(g)
        if not g.has_vertex(a + 1, h) and not g.has_vertex(a - 1, h + 1)
    ]


def partner(g, a: HalfInt, h: int) -> tuple[HalfInt, int]:
    """The reflection pairing uncolored vertices across the band center."""
    return (-a, -(g.t - 2 * g.l - 1) - h)


def reference_derivative(d: LadderDatum, rho_id: str, x: HalfInt) -> LadderDatum | None:
    """The derivative by graph surgery, the reference for ``derivative``.

    Returns None (the zero representation) unless the block graph has an
    uncolored minimal vertex at abscissa x; otherwise that vertex and its
    reflection partner are removed and the datum is rebuilt from what is
    left.  A label absent from the datum has an empty graph, so its
    derivative is zero.
    """
    if not d.has_block(rho_id):
        return None
    block = d.block(rho_id)
    g = build_graph(block)
    hits = [
        (a, h)
        for a, h in reference_minimal_vertices(g)
        if a == x and g.color(a, h) == 0
    ]
    if not hits:
        return None
    assert len(hits) == 1, "at most one minimal vertex per abscissa"
    v = hits[0]
    p = partner(g, *v)
    assert p != v and g.has_vertex(*p) and g.color(*p) == 0
    colored = g.colored_map()
    del colored[v]
    del colored[p]
    new_block = parse_colored_vertices(block.rho, colored)
    result = replace_block(d, rho_id, new_block)
    validate_datum(result)
    return result


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_data() -> list[dict]:
    return [load_golden(path.name) for path in sorted(GOLDEN_DIR.glob("*.json"))]


def golden_datum(data: dict) -> LadderDatum:
    group = GroupKind.SP if data["group"] == "Sp" else GroupKind.SO_ODD
    parity = Parity(data["rho"]["parity"])
    rho = CuspidalLabel(data["rho"]["id"], data["rho"]["d"], parity)
    block = DatumBlock(
        rho, tuple(hi(s) for s in data["datum"]["X"]), data["datum"]["l"], data["datum"]["eta"]
    )
    return LadderDatum.of(group, [block])


def golden_module(data: dict, group: GroupKind, rho: CuspidalLabel) -> StandardModule:
    return module(group, rho, [tuple(p) for p in data["segs"]], [tuple(p) for p in data["temp"]])


# ---------------------------------------------------------------------------
# random valid data


LABEL_POOL = (
    CuspidalLabel("a", 1, Parity.INTEGRAL),
    CuspidalLabel("b", 1, Parity.HALF_INTEGRAL),
    CuspidalLabel("c", 2, Parity.INTEGRAL),
    CuspidalLabel("d", 2, Parity.HALF_INTEGRAL),
)


def _random_block(rng: random.Random, label: CuspidalLabel, max_t: int) -> DatumBlock:
    """One valid block; middle exponents avoid -1/2 so the block is canonical."""
    integral = label.parity is Parity.INTEGRAL
    base = 0 if integral else 1  # twice of the smallest allowed middle exponent
    t = rng.randint(1, max_t)
    l = rng.randint(0, t // 2)
    mid_count = t - 2 * l
    mids: list[int] = []
    cursor = base + 2 * rng.randint(0, 2)
    for _ in range(mid_count):
        mids.append(cursor)
        cursor += 2 * rng.randint(1, 2)
    lows: list[int] = []
    highs: list[int] = []
    prev_low = mids[0] if mids else None
    prev_high = mids[-1] if mids else None
    for _ in range(l):
        floor = prev_high if prev_high is not None else base - 2
        high = floor + 2 * rng.randint(1, 2)
        high = max(high, 2 if integral else 1)  # highs are strictly positive
        if prev_low is not None:
            high = max(high, 2 - prev_low)  # keep the low range non-empty
        low_hi = (prev_low if prev_low is not None else high) - 2
        low = rng.randrange(-high, low_hi + 2, 2)
        lows.insert(0, low)
        highs.append(high)
        prev_low, prev_high = low, high
    exps = tuple(hi(f"{v}/2") if v % 2 else hi(str(v // 2)) for v in lows + mids + highs)
    if 2 * l == t:
        eta = -1
    else:
        eta = rng.choice((1, -1))
    return DatumBlock(label, exps, l, eta)


def random_datum(rng: random.Random, max_blocks: int = 2, max_t: int = 5) -> LadderDatum:
    """A random valid datum in canonical form; group follows the dimension."""
    while True:
        count = 1 if max_blocks == 1 or rng.random() < 0.75 else 2
        labels = rng.sample(LABEL_POOL, count)
        blocks = [_random_block(rng, lab, max_t) for lab in labels]
        sign = 1
        for b in blocks:
            sign *= (-1) ** (b.t // 2 + b.l) * b.eta**b.t
        if sign != 1:
            # flipping eta changes the product only for odd t with free eta
            flippable = [
                i for i, b in enumerate(blocks) if b.t % 2 and 2 * b.l != b.t
            ]
            if not flippable:
                continue
            b = blocks[flippable[0]]
            blocks[flippable[0]] = DatumBlock(b.rho, b.exponents, b.l, -b.eta)
        group = GroupKind.SP if dimension(blocks) % 2 else GroupKind.SO_ODD
        datum = LadderDatum.of(group, blocks)
        try:
            validate_datum(datum)
        except Exception:
            continue
        return datum


def build_corpus(seed: int = 20260808, size: int = 240, **kwargs) -> list[LadderDatum]:
    rng = random.Random(seed)
    return [random_datum(rng, **kwargs) for _ in range(size)]


INTEGRAL_WINDOW = ["-4", "-3", "-2", "-1", "0", "1", "2", "3", "4"]
HALF_WINDOW = ["-7/2", "-5/2", "-3/2", "-1/2", "1/2", "3/2", "5/2", "7/2"]


def enumerate_small(parity: Parity, window: list[str], max_t: int = 4) -> list[LadderDatum]:
    """Every valid single-block datum with exponents in the window, non-canonical ones too."""
    label = INT_LABEL if parity is Parity.INTEGRAL else HALF_LABEL
    values = [hi(s) for s in window]
    out = []
    for t in range(0, max_t + 1):
        for exps in itertools.combinations(values, t):
            for l in range(0, t // 2 + 1):
                for eta in (1, -1):
                    block = DatumBlock(label, exps, l, eta)
                    group = GroupKind.SP if dimension([block]) % 2 else GroupKind.SO_ODD
                    datum = LadderDatum.of(group, [block])
                    try:
                        validate_datum(datum)
                    except Exception:
                        continue
                    out.append(datum)
    return out


# ---------------------------------------------------------------------------
# integer combinations and supports, as only the tests use them


def of_module(module: StandardModule, coeff: int = 1) -> GrothendieckElement:
    return GrothendieckElement.from_items(module.rank, [(module, coeff)])


def gr_combine(
    elems: list[tuple[int, GrothendieckElement]], rank: int | None = None
) -> GrothendieckElement:
    """Integer combination of elements sharing one rank."""
    if rank is None:
        if not elems:
            raise LadderError("cannot combine an empty list without an explicit rank")
        rank = elems[0][1].rank
    items: list[tuple[StandardModule, int]] = []
    for coeff, elem in elems:
        if elem.rank != rank:
            raise RankMismatchError(f"rank {elem.rank} element combined at rank {rank}")
        items.extend((m, coeff * c) for m, c in elem.terms)
    return GrothendieckElement.from_items(rank, items)


def exponent_dimension(s: SupportMultiset) -> int:
    return sum(rho.d * len(values) for rho, values in s.exponents)


def reference_reduce_label(
    rho: CuspidalLabel, pieces: dict[HalfInt, int]
) -> tuple[list[HalfInt], DatumBlock | None]:
    """The hole/pair reduction for one label, rescanning from the top after
    every firing: the reference for ``support._reduce_label``."""
    collected: list[HalfInt] = []
    while True:
        fired = False
        for x in sorted(pieces, key=lambda v: -v.twice):
            sign = pieces[x]
            below = x - 1
            if below in pieces:
                if pieces[below] == sign:
                    # pair rule: the two sign choices exhaust an induced
                    # module whose GL factor covers [-(x-1), x-1].
                    del pieces[x]
                    del pieces[below]
                    collected.extend([x, -x])
                    v = x - 1
                    while not v < 1 - x:
                        collected.extend([v, v])
                        v = v - 1
                    fired = True
                    break
                continue
            if x.twice >= 2 or (x.twice == 1 and sign == 1):
                # hole rule: peel the top exponent of an isolated piece.
                del pieces[x]
                collected.extend([x, -x])
                if not below.twice == -1:  # size would be 0: convention drop
                    pieces[below] = sign
                fired = True
                break
        if not fired:
            break
    if not pieces:
        return collected, None
    exps = sorted(pieces, key=lambda v: v.twice)
    bottom = exps[0]
    if bottom.twice not in (0, 1):
        raise UnsupportedParameterError(
            f"label {rho.id!r}: irreducible remainder does not start at 0 or 1/2"
        )
    for i, v in enumerate(exps):
        if v.twice != bottom.twice + 2 * i:
            raise UnsupportedParameterError(
                f"label {rho.id!r}: irreducible remainder is not a staircase"
            )
        if pieces[v] != pieces[bottom] * (-1) ** i:
            raise UnsupportedParameterError(
                f"label {rho.id!r}: irreducible remainder signs do not alternate"
            )
    if bottom.twice == 1 and pieces[bottom] != -1:
        raise UnsupportedParameterError(
            f"label {rho.id!r}: remainder with bottom 1/2 must carry sign -1"
        )
    return collected, DatumBlock(rho, tuple(exps), 0, pieces[bottom])


def reference_supp_discrete_series(t: TemperedParam) -> SupportMultiset:
    """``supp_discrete_series`` on :func:`reference_reduce_label`."""
    by_label: dict[CuspidalLabel, dict[HalfInt, int]] = {}
    for p in t.pieces:
        if p.a == 0:
            raise UnsupportedParameterError("parameter must be normalized (no size-0 pieces)")
        slot = by_label.setdefault(p.rho, {})
        if p.exponent in slot:
            raise UnsupportedParameterError(
                f"label {p.rho.id!r}: repeated piece of size {p.a} is unsupported"
            )
        slot[p.exponent] = p.sign
    exponents: dict[CuspidalLabel, list[HalfInt]] = {}
    blocks = []
    for rho in sorted(by_label, key=lambda r: r.id):
        collected, core_block = reference_reduce_label(rho, dict(by_label[rho]))
        if collected:
            exponents[rho] = collected
        if core_block is not None:
            blocks.append(core_block)
    core = LadderDatum.of(t.group, blocks)
    validate_datum(core)
    return SupportMultiset.of(exponents, core)


def supp_standard_module(s: StandardModule) -> SupportMultiset:
    """Segment exponents with their duals, plus the tempered support."""
    tail = reference_supp_discrete_series(s.tempered)
    exponents: dict[CuspidalLabel, list[HalfInt]] = {
        rho: list(values) for rho, values in tail.exponents
    }
    for seg in s.segments:
        slot = exponents.setdefault(seg.rho, [])
        for v in segment_exponents(seg):
            slot.extend([v, -v])
    return SupportMultiset.of(exponents, tail.core)


# ---------------------------------------------------------------------------
# reference implementations


def segment_exponents(seg: Segment) -> Iterator[HalfInt]:
    """The exponents x, x-1, ..., y of a segment, stepped by ``HalfInt``."""
    v = seg.x
    while not v < seg.y:
        yield v
        v = v - 1


def graph_m(g) -> int:
    """Half the number of uncolored vertices of a graph: the number of
    derivative steps down to its core."""
    uncolored = sum(1 for a, h in g.vertices() if g.color(a, h) == 0)
    assert uncolored % 2 == 0
    return uncolored // 2


def reference_is_supercuspidal(d: LadderDatum) -> bool:
    """No block graph has an uncolored vertex: the reference for
    ``is_supercuspidal``."""
    return all(graph_m(build_graph(b)) == 0 for b in d.blocks)


def reference_supp_ladder(d: LadderDatum) -> SupportMultiset:
    """Cuspidal support: uncolored abscissas plus the colored core.

    Removing an uncolored minimal vertex contributes its abscissa and the
    partner's, and the partner involution pairs up the uncolored vertices,
    so the accumulated exponents are exactly the uncolored abscissas and the
    core is the colored part of each graph.  The reference for
    ``supp_ladder``.
    """
    validate_datum(d)
    exponents: dict[CuspidalLabel, list[HalfInt]] = {}
    core_blocks = []
    for b in d.blocks:
        g = build_graph(b)
        colored: dict[tuple[HalfInt, int], int] = {}
        removed: list[HalfInt] = []
        for v, c in g.colored_map().items():
            if c == 0:
                removed.append(v[0])
            else:
                colored[v] = c
        if removed:
            exponents[b.rho] = removed
        if colored:
            core_blocks.append(parse_colored_vertices(b.rho, colored))
    core = LadderDatum.of(d.group, core_blocks)
    validate_datum(core)
    return SupportMultiset.of(exponents, core)


def reference_aubert_dual(d: LadderDatum) -> LadderDatum:
    """The involution swapping horizontal and diagonal arrows, per block.

    Integral labels reflect through (x, y) -> (-x, x+y) with colors kept;
    half-integral labels shift the reflection by eta/2 and flip colors.  The
    image is parsed back into a block, and the result is returned in
    canonical form, which makes supercuspidal data honest fixed points.  The
    reference for ``aubert_dual``.
    """
    validate_datum(d)
    blocks = []
    for b in d.blocks:
        g = build_graph(b)
        integral = b.rho.parity is Parity.INTEGRAL
        mapped: dict[tuple[HalfInt, int], int] = {}
        for (a, h), color in g.colored_map().items():
            if integral:
                image = (-a, (a.twice + 2 * h) // 2)
                mapped[image] = color
            else:
                image = (-a, (a.twice + 2 * h + b.eta) // 2)
                mapped[image] = -color
        blocks.append(parse_colored_vertices(b.rho, mapped))
    result = canonical_form(LadderDatum.of(d.group, blocks))
    validate_datum(result)
    return result


def _first_removable(d: LadderDatum) -> tuple[str, HalfInt] | None:
    for b in d.blocks:
        g = build_graph(b)
        for a, h in reference_minimal_vertices(g):
            if g.color(a, h) == 0:
                return (b.rho.id, a)
    return None


def supp_ladder_by_derivatives(d: LadderDatum) -> SupportMultiset:
    """Cuspidal support by repeated derivatives down to the colored core."""
    validate_datum(d)
    exponents: dict[CuspidalLabel, list[HalfInt]] = {}
    current = d
    while True:
        pick = _first_removable(current)
        if pick is None:
            break
        rho_id, x = pick
        rho = current.block(rho_id).rho
        exponents.setdefault(rho, []).extend([x, -x])
        step = derivative(current, rho_id, x)
        assert step is not None
        current = step
    assert is_supercuspidal(current)
    return SupportMultiset.of(exponents, current)


def block_perms(block: DatumBlock) -> list[tuple[int, ...]]:
    """A block's admissible permutations (one-line images, 1-based) in
    lexicographic order, zone by zone: the paired zone A, the middle zone B
    and the remaining indices C, each increasing, give the permutations
    ``A + B + tail`` over the permutations ``tail`` of C.  Strongly negative
    exponents are confined to A, and the -1/2 exponent of a sign -1 block is
    barred from B.  The reference for the order of ``formula._block_walk``."""
    t, l = block.t, block.l
    indices = range(1, t + 1)
    confined = {i for i in indices if block.x(i).twice <= -2}
    barred = set(confined)
    if block.eta == -1:
        barred |= {i for i in indices if block.x(i).twice == -1}
    perms = []
    for zone_a in itertools.combinations(indices, l):
        if not confined <= set(zone_a):
            continue
        rest = [i for i in indices if i not in zone_a]
        for zone_b in itertools.combinations(rest, t - 2 * l):
            if barred & set(zone_b):
                continue
            zone_c = [i for i in rest if i not in zone_b]
            perms += [zone_a + zone_b + tail for tail in itertools.permutations(zone_c)]
    return perms


def reference_sigmas(d: LadderDatum) -> list[SigmaElement]:
    """The admissible permutation tuples in lexicographic order: the product
    of the blocks' :func:`block_perms`, each permutation signed by
    ``permutation_sign``.  The reference for ``enumerate_sigma`` and for the
    rows of ``sigma_table``."""
    return [
        SigmaElement(perms, math.prod(map(permutation_sign, perms)))
        for perms in itertools.product(*map(block_perms, d.blocks))
    ]


def reference_block_parts(
    block: DatumBlock, perm: tuple[int, ...]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Read one block permutation into integer parts, exponents doubled.

    Returns the segments ``(x, y)`` of the pairs kept in Langlands position
    (``low < high``: ``(x_low, -x_high)``), the piece sizes ``(a1, a2)`` of
    the inverted pairs and the middle pieces ``(a, sign)``, signs
    alternating from eta.  The reference for ``formula._pair_share``.
    """
    t, l = block.t, block.l
    xs = [x.twice for x in block.exponents]
    segments = []
    pairs = []
    for j in range(l):
        low, high = perm[j], perm[t - 1 - j]
        if low < high:
            segments.append((xs[low - 1], -xs[high - 1]))
            continue
        a1, a2 = xs[low - 1] + 1, xs[high - 1] + 1
        if min(a1, a2) < 0:
            raise AssertionError("negative piece size escaped the membership constraints")
        pairs.append((a1, a2))
    zone = perm[l : t - l]
    fixed = [(xs[i - 1] + 1, block.eta if k % 2 == 0 else -block.eta) for k, i in enumerate(zone)]
    if any(a < 0 for a, _ in fixed):
        raise AssertionError("negative piece size escaped the membership constraints")
    return segments, pairs, fixed


def reference_sign_choices(
    pairs: list[tuple[int, int]], fixed: list[tuple[int, int]]
) -> Iterator[list[tuple[int, int]]]:
    """The pieces ``(a, sign)`` under each sign choice, +1 before -1 per pair."""
    both = [[((a1, sign), (a2, sign)) for sign in (1, -1)] for a1, a2 in pairs]
    for chosen in itertools.product(*both):
        yield list(itertools.chain(fixed, *chosen))


def reference_assemble(d: LadderDatum, sigma: SigmaElement) -> list[StandardModule | ZeroRep]:
    """The direct-sum summands of one permutation tuple, built as objects:
    the reference for ``assemble_i_sigma``.

    Summands are listed over sign choices on the inverted pairs, +1 before
    -1 per pair, pairs ordered by block then pair index; each is assembled
    by ``make_standard_module``, so convention-killed summands appear as the
    zero sentinel.
    """
    segments: list[Segment] = []
    choices: list[list[list[TemperedPiece]]] = []  # per block, per sign choice
    for block, perm in zip(d.blocks, sigma.perms):
        rho = block.rho
        block_segments, pairs, fixed = reference_block_parts(block, perm)
        segments += (Segment(rho, HalfInt(x), HalfInt(y)) for x, y in block_segments)
        choices.append(
            [
                [TemperedPiece(rho, a, sign) for a, sign in pieces]
                for pieces in reference_sign_choices(pairs, fixed)
            ]
        )
    return [
        make_standard_module(segments, TemperedParam(d.group, tuple(itertools.chain(*pieces))))
        for pieces in itertools.product(*choices)
    ]


def reference_expansion(d: LadderDatum, projected: bool) -> GrothendieckElement:
    """The signed expansion summand by summand, the reference for ``determinantal_formula``.

    Every permutation tuple is assembled into its summands by
    :func:`reference_assemble`, the nonzero ones are summed by
    ``from_items``, and the projection keeps each term whose own support
    equals the ladder's.
    """
    rank = validate_datum(d)
    items = [
        (summand, sigma.sign)
        for sigma in reference_sigmas(d)
        for summand in reference_assemble(d, sigma)
        if not is_zero(summand)
    ]
    element = GrothendieckElement.from_items(rank, items)
    if projected:
        target = supp_ladder(d)
        element = GrothendieckElement.from_items(
            rank, [(m, c) for m, c in element.terms if supp_standard_module(m) == target]
        )
    return element


def reference_perm_shares(block: DatumBlock, perm: tuple[int, ...]) -> list[tuple]:
    """One block permutation's shares of its surviving summands, in
    sign-choice order, read by :func:`reference_block_parts`.

    A share is a pair (segment keys, piece keys), each sorted, in the form
    of :meth:`StandardModule.sort_key`.  The degeneracy conventions apply:
    a zero Steinberg factor or a size-0 piece of sign -1 leaves the summand
    out, and unit factors and size-0 pieces of sign +1 are dropped.  The
    reference for the shares ``formula._block_walk`` yields.
    """
    rid = block.rho.id
    segments, pairs, fixed = reference_block_parts(block, perm)
    if any(y > x + 2 for x, y in segments):
        return []
    seg_keys = tuple(sorted([(x + y, x, rid, y) for x, y in segments if y <= x]))
    return [
        (seg_keys, tuple(sorted([(rid, a, -s) for a, s in pieces if a])))
        for pieces in reference_sign_choices(pairs, fixed)
        if (0, -1) not in pieces
    ]


def reference_block_shares(block: DatumBlock) -> dict[tuple, int]:
    """One block's shares of the summands (:func:`reference_perm_shares`),
    summed with the permutation signs over :func:`block_perms`: the
    reference for ``formula._block_shares``."""
    return sum_coefficients(
        (share, permutation_sign(perm))
        for perm in block_perms(block)
        for share in reference_perm_shares(block, perm)
    )


def gl_combination_from_items(items: Iterable[tuple[tuple[Segment, ...], int]]) -> GLCombination:
    """Merge equal products, drop zero coefficients, sort by the factors' sort keys."""
    terms = tuple(
        sorted(
            ((p, c) for p, c in sum_coefficients(items).items() if c != 0),
            key=lambda pc: tuple(s.sort_key() for s in pc[0]),
        )
    )
    return GLCombination(terms)


def reference_gl_expansion(g: GLLadder) -> GLCombination:
    """The alternating sum over all ``t!`` permutations, the reference for
    ``gl_determinantal_formula``."""
    t = g.t
    items = []
    for perm in itertools.permutations(range(t)):
        product = steinberg_product(
            Segment(g.rho, g.segments[i][0], g.segments[perm[i]][1]) for i in range(t)
        )
        if is_zero(product):
            continue
        items.append((product, permutation_sign([p + 1 for p in perm])))
    return gl_combination_from_items(items)


def mw_dual(segments: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The Mœglin–Waldspurger involution on a multisegment of one label, sorted.

    A segment ``(b, e)`` is the run of twists b, b + 1, ..., e, doubled.
    Each round starts a chain at a segment of largest end, the shortest of
    them; each next link ends one step below the last and begins strictly
    below it, again the shortest such.  A chain of r links gives the dual
    the segment of the r twists that end at the largest end, and every
    link loses its own end.  The rounds stop when nothing is left.
    """
    m = list(segments)
    out = []
    while m:
        top = max(e for _, e in m)
        chain: list[int] = []
        end, below = top, None
        while True:
            links = [k for k, (b, e) in enumerate(m) if e == end and (below is None or b < below)]
            if not links:
                break
            k = max(links, key=lambda k: m[k][0])
            chain.append(k)
            below, end = m[k][0], end - 2
        out.append((top - 2 * (len(chain) - 1), top))
        m = [(b, e - 2) if k in chain else (b, e) for k, (b, e) in enumerate(m)]
        m = [(b, e) for b, e in m if b <= e]
    return tuple(sorted(out))


def _reference_jacquet_tuples(block: DatumBlock) -> Iterator[tuple[HalfInt, ...]]:
    t, l = block.t, block.l
    integral = block.rho.parity is Parity.INTEGRAL
    chosen: list[HalfInt] = []

    def bounds(i: int) -> tuple[int, int]:
        lo = -block.x(t - i + 1).twice - 2
        hi_ = block.x(i).twice
        if l + 1 <= i <= t - l:
            mid = 2 * (i - l - 1) if integral else 2 * (i - l - 1) - block.eta
            lo = max(lo, mid)
        if i > t - l:
            lo = max(lo, -2 - chosen[t - i].twice)
        if chosen:
            lo = max(lo, chosen[-1].twice + 2)
        return lo, hi_

    def rec(i: int) -> Iterator[tuple[HalfInt, ...]]:
        if i > t:
            yield tuple(chosen)
            return
        lo, hi_ = bounds(i)
        start = lo if (lo - block.x(i).twice) % 2 == 0 else lo + 1
        for tw in range(start, hi_ + 1, 2):
            chosen.append(HalfInt(tw))
            yield from rec(i + 1)
            chosen.pop()

    yield from rec(1)


def _reference_jacquet_block(block: DatumBlock, ys: tuple[HalfInt, ...]) -> DatumBlock:
    t, l = block.t, block.l
    kept = [ys[i - 1] for i in range(1, t + 1) if ys[i - 1].twice + ys[t - i].twice >= 0]
    drops = sum(1 for i in range(1, l + 1) if ys[i - 1].twice + ys[t - i].twice == -2)
    new_l = l - drops
    if not kept:
        eta = 1
    elif 2 * new_l == len(kept):
        eta = -1
    else:
        eta = block.eta
    return DatumBlock(block.rho, tuple(kept), new_l, eta)


def reference_jacquet_expansion(
    d: LadderDatum, rho_id: str, merged: bool = True
) -> list[JacquetTerm]:
    """The Jacquet summands tuple by tuple in half-integers, the reference for
    ``jacquet_expansion``: every tuple builds its own segments and datum."""
    validate_datum(d)
    block = d.block(rho_id)
    t = block.t
    pairs = []
    for ys in _reference_jacquet_tuples(block):
        segs = tuple(
            Segment(block.rho, block.x(i), ys[i - 1] + 1)
            for i in range(1, t + 1)
            if ys[i - 1] < block.x(i)
        )
        rest = replace_block(d, rho_id, _reference_jacquet_block(block, ys))
        validate_datum(rest)
        pairs.append((segs, rest))
    if merged:
        counts = sum_coefficients((pair, 1) for pair in pairs)
        terms = [JacquetTerm(segs, rest, count) for (segs, rest), count in counts.items()]
    else:
        terms = [JacquetTerm(segs, rest, 1) for segs, rest in pairs]
    terms.sort(
        key=lambda tm: (
            tm.gl_size,
            tuple(s.sort_key() for s in tm.gl_segments),
            tm.datum.sort_key(),
        )
    )
    return terms


# ---------------------------------------------------------------------------
# object writers: the byte-identity reference for the command line's row
# writers (``jsonio.write_module_rows``, ``jsonio.write_gl_rows`` and
# ``jsonio.write_jacquet_rows``)


def _arr(level: int, items: list[str]) -> str:
    """An array at indent ``level`` of already rendered items."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + ",".join(pad + item for item in items) + "\n" + "  " * level + "]"


class ObjectWriter(_Writer):
    """The row writers' cached texts, read off engine values."""

    def segment(self, seg: Segment, level: int) -> str:
        return self.segment_of(seg.rho, seg.x.twice, seg.y.twice, level)

    def segments(self, segs: Iterable[Segment], level: int) -> str:
        return _arr(level, [self.segment(s, level + 1) for s in segs])

    def piece(self, p: TemperedPiece, level: int) -> str:
        return self.piece_of(p.rho, p.a, p.sign, level)

    def module(self, m: StandardModule, level: int) -> str:
        t = m.tempered
        tempered = _obj(
            level + 1,
            (
                ("group", json.dumps(t.group.value)),
                ("pieces", _arr(level + 2, [self.piece(p, level + 3) for p in t.pieces])),
            ),
        )
        return _obj(level, (("segments", self.segments(m.segments, level + 1)), ("tempered", tempered)))

    def block(self, b: DatumBlock, level: int) -> str:
        return self.block_of(b.rho, [x.twice for x in b.exponents], b.l, b.eta, level)


def write_element(e: GrothendieckElement, out: TextIO) -> None:
    """Write ``element_to_json(e)`` as the command line prints it."""
    w = ObjectWriter()
    terms = (_obj(2, (("coefficient", str(c)), ("module", w.module(m, 3)))) for m, c in e.terms)
    _write_top(out, f'"rank": {e.rank},\n  ', terms)


def write_gl_combination(c: GLCombination, out: TextIO) -> None:
    """Write ``gl_combination_to_json(c)`` as the command line prints it."""
    w = ObjectWriter()
    terms = (
        _obj(2, (("coefficient", str(coeff)), ("product", w.segments(product, 3))))
        for product, coeff in c.terms
    )
    _write_top(out, "", terms)


def write_jacquet_terms(terms: Iterable[JacquetTerm], out: TextIO) -> None:
    """Write ``{"terms": [jacquet_term_to_json(t) for t in terms]}`` as the command line prints it."""
    w = ObjectWriter()
    texts = (
        _obj(
            2,
            (
                ("datum", w.datum_of(t.datum.group, [w.block(b, 5) for b in t.datum.blocks], 3)),
                ("gl", w.segments(t.gl_segments, 3)),
                ("gl_size", str(t.gl_size)),
                ("multiplicity", str(t.multiplicity)),
            ),
        )
        for t in terms
    )
    _write_top(out, "", texts)
