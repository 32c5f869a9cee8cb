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


def _zones(
    block: DatumBlock,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """The zones of a block's admissible permutations, in lexicographic order.

    Yields the paired zone A, the middle zone B and the remaining indices C,
    each increasing; the permutations are ``A + B + tail`` over the
    permutations ``tail`` of C.  Strongly negative exponents are confined to
    A, and the -1/2 exponent of a sign -1 block is barred from B.
    """
    t, l = block.t, block.l
    indices = range(1, t + 1)
    confined = {i for i in indices if block.x(i).twice <= -2}
    banned_middle = set(confined)
    if block.eta == -1:
        banned_middle |= {i for i in indices if block.x(i) == MINUS_HALF}
    for zone_a in itertools.combinations(indices, l):
        if not confined <= set(zone_a):
            continue
        rest = [i for i in indices if i not in zone_a]
        for zone_b in itertools.combinations(rest, t - 2 * l):
            if banned_middle & set(zone_b):
                continue
            yield zone_a, zone_b, tuple(i for i in rest if i not in zone_b)


def _block_perms(block: DatumBlock) -> list[tuple[int, ...]]:
    return [a + b + tail for a, b, c in _zones(block) for tail in itertools.permutations(c)]


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


def _pair(xs: Sequence[int], low: int, high: int) -> tuple[bool, int, int]:
    """Read the pair ``(low, high)`` of a block permutation, exponents doubled.

    With ``low < high`` the pair is kept in Langlands position as the
    segment ``(x, y) = (x_low, -x_high)``: returns ``(True, x, y)``.
    Otherwise it is inverted into two pieces of sizes ``a1, a2``: returns
    ``(False, a1, a2)``.
    """
    if low < high:
        return True, xs[low - 1], -xs[high - 1]
    a1, a2 = xs[low - 1] + 1, xs[high - 1] + 1
    if min(a1, a2) < 0:
        raise AssertionError("negative piece size escaped the membership constraints")
    return False, a1, a2


def _middle(xs: Sequence[int], eta: int, zone: Sequence[int]) -> list[tuple[int, int]]:
    """The pieces ``(a, sign)`` of the middle zone, signs alternating from ``eta``."""
    fixed = [(xs[i - 1] + 1, eta if k % 2 == 0 else -eta) for k, i in enumerate(zone)]
    if any(a < 0 for a, _ in fixed):
        raise AssertionError("negative piece size escaped the membership constraints")
    return fixed


def _pair_choices(a1: int, a2: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The pieces ``(a, sign)`` of an inverted pair under each sign choice, +1 before -1."""
    return [((a1, sign), (a2, sign)) for sign in (1, -1)]


def _piece_keys(
    rid: str, pieces: Sequence[tuple[int, int]]
) -> tuple[tuple[str, int, int], ...] | None:
    """The keys ``(label id, a, -sign)`` of pieces ``(a, sign)``, unsorted.

    None when a size-0 piece of sign -1 leaves the summand out; size-0
    pieces of sign +1 are dropped.
    """
    if (0, -1) in pieces:
        return None
    return tuple((rid, a, -sign) for a, sign in pieces if a)


def _block_parts(
    block: DatumBlock, perm: Sequence[int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Read one block permutation into integer parts, exponents doubled.

    Returns the segments ``(x, y)`` of the pairs kept in Langlands position,
    the piece sizes ``(a1, a2)`` of the inverted pairs, and the middle
    pieces ``(a, sign)``.
    """
    t, l = block.t, block.l
    xs = [x.twice for x in block.exponents]
    segments = []
    pairs = []
    for j in range(l):
        kept, u, v = _pair(xs, perm[j], perm[t - 1 - j])
        (segments if kept else pairs).append((u, v))
    return segments, pairs, _middle(xs, block.eta, perm[l : t - l])


def _sign_choices(
    pairs: list[tuple[int, int]], fixed: list[tuple[int, int]]
) -> Iterator[list[tuple[int, int]]]:
    """The pieces ``(a, sign)`` under each sign choice, +1 before -1 per pair."""
    for chosen in itertools.product(*(_pair_choices(a1, a2) for a1, a2 in pairs)):
        yield list(itertools.chain(fixed, *chosen))


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


# One pair's share: None for a zero Steinberg factor; a tuple of segment keys,
# empty for a unit factor; or, for an inverted pair, a list of its piece keys
# under each sign choice that survives, +1 before -1.
_PairShare = (
    tuple[tuple[int, int, str, int], ...] | list[tuple[tuple[str, int, int], ...]] | None
)


def _block_shares(block: DatumBlock) -> dict[ModuleKey, int]:
    """One block's shares of the summands, summed with the permutation signs.

    A share is a pair (segment keys, piece keys), each sorted, in the form
    of :meth:`StandardModule.sort_key`.  The degeneracy conventions apply:
    a zero Steinberg factor or a size-0 piece of sign -1 leaves the summand
    out, and unit factors and size-0 pieces of sign +1 are dropped.

    The walk reads a table instead of each permutation.  Permutation
    ``A + B + tail`` (see :func:`_zones`) pairs ``A[j]`` with
    ``tail[l-1-j]``, so each (low, high) pair's share is computed once, on
    first reading, and each middle zone's piece keys once per zone.  A
    permutation's sign is the sign of ``A + B + C`` times the sign of its
    tail's rearrangement of C, one of ``l!`` read from a table.  The result
    equals summing the shares of every permutation of :func:`_block_perms`
    in turn: same keys, same coefficients (0 included), same first-seen
    order.
    """
    l = block.l
    rid = block.rho.id
    xs = [x.twice for x in block.exponents]
    table: dict[tuple[int, int], _PairShare] = {}

    def pair(low: int, high: int) -> _PairShare:
        """The share of pair ``(low, high)``, computed on its first reading."""
        if (low, high) in table:
            return table[low, high]
        kept, u, v = _pair(xs, low, high)
        entry: _PairShare
        if not kept:
            choices = (_piece_keys(rid, pieces) for pieces in _pair_choices(u, v))
            entry = [keys for keys in choices if keys is not None]
        elif v > u + 2:
            entry = None
        else:
            entry = ((u + v, u, rid, v),) if v <= u else ()
        table[low, high] = entry
        return entry

    middles: dict[tuple[int, ...], tuple[tuple[str, int, int], ...] | None] = {}
    tails = list(itertools.permutations(range(1, l + 1)))
    tail_signs = [permutation_sign(tail) for tail in tails]
    # the position in C of the high end of each pair j, per tail
    columns = [tuple(tail[l - 1 - j] - 1 for j in range(l)) for tail in tails]
    acc: dict[ModuleKey, int] = {}
    for zone_a, zone_b, zone_c in _zones(block):
        # every pair some tail reads, each checked even if a zero factor skips its tail
        rows = [[pair(a, c) for c in zone_c] for a in zone_a]
        if zone_b not in middles:
            middles[zone_b] = _piece_keys(rid, _middle(xs, block.eta, zone_b))
        middle = middles[zone_b]
        if middle is None:
            continue
        base = permutation_sign(zone_a + zone_b + zone_c)
        for column, tail_sign in zip(columns, tail_signs):
            segments: list[tuple[int, int, str, int]] = []
            inverted = []
            for row, c in zip(rows, column):
                entry = row[c]
                if entry is None:
                    break
                if isinstance(entry, tuple):
                    segments += entry
                else:
                    inverted.append(entry)
            else:
                seg_keys = tuple(sorted(segments))
                sign = base * tail_sign
                for chosen in itertools.product(*inverted):
                    key = (seg_keys, tuple(sorted(sum(chosen, middle))))
                    acc[key] = acc.get(key, 0) + sign
    return acc


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
    of shares (:func:`_block_shares`, a table walk), starting from the first
    block's shares.  Every distinct key, coefficient 0 included, passes
    :func:`check_module_key`.  The nonzero keys are sorted,
    the projection keeps those whose support is the ladder's, and a module
    is built only for each key kept.  This equals summing
    :func:`assemble_i_sigma` over :func:`enumerate_sigma`, then projecting.
    """
    rank = validate_datum(d)
    terms: dict[ModuleKey, int] = _block_shares(d.blocks[0]) if d.blocks else {((), ()): 1}
    for block in d.blocks[1:]:
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
