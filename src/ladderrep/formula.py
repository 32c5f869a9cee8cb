"""Signed expansion of a ladder class over constrained permutations.

The expansion runs over tuples of permutations, one per block, increasing on
the paired zone and on the middle zone, with strongly negative exponents
confined to the paired zone and the -1/2 exponent of a sign -1 block barred
from the middle zone.  Each permutation contributes a product of segments
(for pairs kept in Langlands position) induced against a direct sum of
tempered parameters (one summand per sign choice on the inverted pairs),
and the signed sum, projected to the support of the ladder class, is the
class itself.  A parallel expansion over the full symmetric group handles
the general-linear case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    CuspidalLabel,
    GrothendieckElement,
    GroupKind,
    HalfInt,
    LadderError,
    ModuleKey,
    Segment,
    StandardModule,
    TemperedParam,
    TemperedPiece,
    ZeroRep,
    check_module_key,
    is_zero,
    make_standard_module,
    steinberg_product,
    sum_coefficients,
)
from .datum import DatumBlock, LadderDatum, MINUS_HALF, validate_datum
from .graph import supp_ladder
from .support import SupportFilter


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 1..n: (-1) to the n minus its number of cycles."""
    n = len(perm)
    seen = [False] * (n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i - 1]
    return -1 if (n - cycles) % 2 else 1


@dataclass(frozen=True)
class SigmaElement:
    """One permutation per block (one-line images, 1-based), with total sign."""

    perms: tuple[tuple[int, ...], ...]
    sign: int

    def sort_key(self) -> tuple:
        return self.perms


def _block_perms(block: DatumBlock) -> list[tuple[int, ...]]:
    t, l = block.t, block.l
    indices = range(1, t + 1)
    confined = {i for i in indices if block.x(i).twice <= -2}
    banned_middle = set(confined)
    if block.eta == -1:
        banned_middle |= {i for i in indices if block.x(i) == MINUS_HALF}
    out = []
    for zone_a in itertools.combinations(indices, l):
        if not confined <= set(zone_a):
            continue
        rest = [i for i in indices if i not in zone_a]
        for zone_b in itertools.combinations(rest, t - 2 * l):
            if banned_middle & set(zone_b):
                continue
            pool = [i for i in rest if i not in zone_b]
            for tail in itertools.permutations(pool):
                out.append(zone_a + zone_b + tail)
    return out


def enumerate_sigma(d: LadderDatum) -> list[SigmaElement]:
    """All admissible permutation tuples, in lexicographic order.

    ``itertools`` yields combinations, permutations of a sorted pool and
    products in lexicographic order, so no sort is needed.
    """
    per_block = [_block_perms(b) for b in d.blocks]
    out = []
    for combo in itertools.product(*per_block):
        sign = 1
        for perm in combo:
            sign *= permutation_sign(perm)
        out.append(SigmaElement(tuple(combo), sign))
    return out


def _block_parts(
    block: DatumBlock, perm: Sequence[int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Read one block permutation into integer parts, exponents doubled.

    Returns the segments ``(x, y)`` of the pairs kept in Langlands position,
    the piece sizes ``(a1, a2)`` of the inverted pairs, and the middle
    pieces ``(a, sign)``.
    """
    t, l, eta = block.t, block.l, block.eta
    xs = [x.twice for x in block.exponents]
    segments = []
    pairs = []
    for j in range(l):
        low, high = perm[j], perm[t - 1 - j]
        if low < high:
            segments.append((xs[low - 1], -xs[high - 1]))
        else:
            pairs.append((xs[low - 1] + 1, xs[high - 1] + 1))
    fixed = [(xs[perm[i] - 1] + 1, eta if (i - l) % 2 == 0 else -eta) for i in range(l, t - l)]
    if any(min(pair) < 0 for pair in pairs) or any(a < 0 for a, _ in fixed):
        raise AssertionError("negative piece size escaped the membership constraints")
    return segments, pairs, fixed


def _sign_choices(
    pairs: list[tuple[int, int]], fixed: list[tuple[int, int]]
) -> Iterator[list[tuple[int, int]]]:
    """The pieces ``(a, sign)`` under each sign choice, +1 before -1 per pair."""
    for delta in itertools.product((1, -1), repeat=len(pairs)):
        pieces = list(fixed)
        for (a1, a2), sign in zip(pairs, delta):
            pieces += ((a1, sign), (a2, sign))
        yield pieces


def assemble_i_sigma(
    d: LadderDatum, sigma: SigmaElement
) -> list[StandardModule | ZeroRep]:
    """The direct-sum summands contributed by one permutation tuple.

    Summands are listed over sign choices on the inverted pairs, +1 before
    -1 per pair, pairs ordered by block then pair index; convention-killed
    summands appear as the zero sentinel.
    """
    segments: list[Segment] = []
    choices: list[list[list[TemperedPiece]]] = []  # per block, per sign choice
    for block, perm in zip(d.blocks, sigma.perms):
        rho = block.rho
        block_segments, pairs, fixed = _block_parts(block, perm)
        segments += (Segment(rho, HalfInt(x), HalfInt(y)) for x, y in block_segments)
        choices.append(
            [
                [TemperedPiece(rho, a, sign) for a, sign in pieces]
                for pieces in _sign_choices(pairs, fixed)
            ]
        )
    return [
        make_standard_module(segments, TemperedParam(d.group, tuple(itertools.chain(*pieces))))
        for pieces in itertools.product(*choices)
    ]


def _block_shares(block: DatumBlock) -> dict[ModuleKey, int]:
    """One block's shares of the summands, summed with the permutation signs.

    A share is a pair (segment keys, piece keys), each sorted, in the form
    of :meth:`StandardModule.sort_key`.  The degeneracy conventions apply:
    a zero Steinberg factor or a size-0 piece of sign -1 leaves the summand
    out, and unit factors and size-0 pieces of sign +1 are dropped.
    """
    rid = block.rho.id

    def shares(perm: tuple[int, ...]) -> Iterator[tuple[ModuleKey, int]]:
        segments, pairs, fixed = _block_parts(block, perm)
        if any(y > x + 2 for x, y in segments):
            return
        sign = permutation_sign(perm)
        seg_keys = tuple(sorted([(x + y, x, rid, y) for x, y in segments if y <= x]))
        for pieces in _sign_choices(pairs, fixed):
            if (0, -1) not in pieces:
                yield (seg_keys, tuple(sorted([(rid, a, -s) for a, s in pieces if a]))), sign

    return sum_coefficients(item for perm in _block_perms(block) for item in shares(perm))


def _join(key: ModuleKey, share: ModuleKey) -> ModuleKey:
    """The key of a product of shares over distinct labels.

    Every segment and piece key names its label, so the joined key
    determines the shares it was made from.
    """
    return tuple(sorted(key[0] + share[0])), tuple(sorted(key[1] + share[1]))


def _terms_of_keys(
    group: GroupKind, labels: dict[str, CuspidalLabel], items: list[tuple[ModuleKey, int]]
) -> tuple[tuple[StandardModule, int], ...]:
    """Each key's module, built directly since the key passed
    :func:`check_module_key`, with its coefficient.

    Equal segment keys share one segment, and equal piece keys one tempered
    parameter.
    """
    segments: dict[tuple[int, int, str, int], Segment] = {}
    tempered: dict[tuple[tuple[str, int, int], ...], TemperedParam] = {}
    terms = []
    for (seg_keys, piece_keys), c in items:
        for k in seg_keys:
            if k not in segments:
                segments[k] = Segment(labels[k[2]], HalfInt(k[1]), HalfInt(k[3]))
        if piece_keys not in tempered:
            tempered[piece_keys] = TemperedParam(
                group, tuple(TemperedPiece(labels[rid], a, -neg) for rid, a, neg in piece_keys)
            )
        terms.append((StandardModule(tuple(segments[k] for k in seg_keys), tempered[piece_keys]), c))
    return tuple(terms)


@dataclass(frozen=True)
class TableRow:
    sigma: SigmaElement
    summands: tuple[StandardModule, ...]  # surviving summands, sign-choice order


def sigma_table(d: LadderDatum) -> list[TableRow]:
    """The expansion as printable rows: permutation, sign, surviving summands."""
    validate_datum(d)
    rows = []
    for sigma in enumerate_sigma(d):
        kept = tuple(
            s for s in assemble_i_sigma(d, sigma) if not is_zero(s)
        )
        rows.append(TableRow(sigma, kept))  # type: ignore[arg-type]
    return rows


def determinantal_formula(d: LadderDatum, projected: bool = True) -> GrothendieckElement:
    """Signed sum of the permutation summands, optionally support-projected.

    The sum runs over the integer keys of :meth:`StandardModule.sort_key`
    instead of assembled summands.  The permutation tuples are products of
    per-block permutations, so the sum is the product of the per-block sums
    of shares (:func:`_block_shares`).  Every distinct key, coefficient 0
    included, passes :func:`check_module_key`.  The nonzero keys are sorted,
    the projection keeps those whose support is the ladder's, and a module
    is built only for each key kept.  This equals summing
    :func:`assemble_i_sigma` over :func:`enumerate_sigma`, then projecting.
    """
    rank = validate_datum(d)
    terms: dict[ModuleKey, int] = {((), ()): 1}
    for block in d.blocks:
        shares = _block_shares(block)
        terms = {_join(k, share): c * s for k, c in terms.items() for share, s in shares.items()}
    labels = {b.rho.id: b.rho for b in d.blocks}
    for key in terms:
        check_module_key(d.group, labels, key, rank)
    # sorted before projecting, so that a tempered part whose support fails
    # is met in term order, as when projecting a built element
    kept = sorted((key, c) for key, c in terms.items() if c)
    if projected:
        support = SupportFilter(supp_ladder(d))
        kept = [
            (key, c)
            for key, c in kept
            if support.keeps(
                d.group,
                key[1],
                ((labels[rid], a, -neg) for rid, a, neg in key[1]),
                ((rid, x, y) for _, x, rid, y in key[0]),
            )
        ]
    return GrothendieckElement(rank, _terms_of_keys(d.group, labels, kept))


# ---------------------------------------------------------------------------
# general-linear ladders


@dataclass(frozen=True)
class GLLadder:
    """Segments with strictly increasing endpoints over one label, one coset."""

    rho: CuspidalLabel
    segments: tuple[tuple[HalfInt, HalfInt], ...]

    def __post_init__(self) -> None:
        for x, y in self.segments:
            if not (self.rho.parity.matches(x) and self.rho.parity.matches(y)):
                raise LadderError("ladder endpoints must share the label's parity class")
        for (x1, y1), (x2, y2) in zip(self.segments, self.segments[1:]):
            if not (x1 < x2 and y1 < y2):
                raise LadderError("ladder endpoints must strictly increase")

    @property
    def t(self) -> int:
        return len(self.segments)


GLProduct = tuple[Segment, ...]


@dataclass(frozen=True)
class GLCombination:
    """Integer combination of products of Steinberg factors."""

    terms: tuple[tuple[GLProduct, int], ...]

    def __len__(self) -> int:
        return len(self.terms)


def gl_determinantal_formula(g: GLLadder) -> GLCombination:
    """Alternating sum over the permutations of the lower endpoints.

    Only the permutations whose every factor ``[x_i, y_j]`` is nonzero are
    walked.  The ``y_j`` strictly increase, so the columns row ``i`` may
    take form a prefix, and the sign is counted as inversions against the
    columns already used.  Pruning gives the full alternating sum because
    nothing cancels: the ``x_i`` and the ``y_j`` strictly increase, so a
    product's kept factors name their rows and columns, and each remaining
    row, a unit factor ``[x_i, x_i + 1]``, names its column; a product
    comes from one permutation only.  Products are merged and sorted under
    integer keys in :meth:`Segment.sort_key` order, and each is then built
    once by :func:`steinberg_product`.
    """
    t = g.t
    factors = [[Segment(g.rho, x, y) for _, y in g.segments] for x, _ in g.segments]
    # per row, each factor before the first zero one: its sort key, or None for a unit
    keys: list[list[tuple[int, int, int] | None]] = []
    for row in factors:
        keys.append([])
        for f in row:
            kept = steinberg_product((f,))
            if is_zero(kept):
                break
            keys[-1].append((f.x.twice + f.y.twice, f.x.twice, f.y.twice) if kept else None)
    # the prefixes grow with i, so rows 0..i need i + 1 columns among row i's prefix
    if any(len(row) <= i for i, row in enumerate(keys)):
        return GLCombination(())
    segment_of = {k: f for row, krow in zip(factors, keys) for f, k in zip(row, krow) if k}
    used = [False] * t
    chosen: list[tuple[int, int, int]] = []

    def walk(i: int, sign: int) -> Iterator[tuple[tuple, int]]:
        if i == t:
            yield tuple(sorted(chosen)), sign
            return
        for j, key in enumerate(keys[i]):
            if used[j]:
                continue
            used[j] = True
            if key:
                chosen.append(key)
            yield from walk(i + 1, -sign if sum(used[j + 1 :]) % 2 else sign)
            if key:
                chosen.pop()
            used[j] = False

    terms = sum_coefficients(walk(0, 1))
    return GLCombination(
        tuple(
            (steinberg_product(segment_of[k] for k in key), c)  # type: ignore[misc]
            for key, c in sorted(terms.items())
            if c != 0
        )
    )
