"""Signed expansion of a ladder class over constrained permutations.

The expansion runs over tuples of permutations, one per block, increasing on
the paired zone and on the middle zone, with strongly negative exponents
confined to the paired zone and the -1/2 exponent of a sign -1 block barred
from the middle zone.  Each permutation contributes a product of segments
(for pairs kept in Langlands position) induced against a direct sum of
tempered parameters (one summand per sign choice on the inverted pairs),
and the signed sum, projected to the support of the ladder class, is the
class itself.  One walk per block (:func:`_block_walk`) lists the
permutations with their signs and summand keys, and every other enumeration
reads it.  A parallel expansion over the full symmetric group handles the
general-linear case.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    CuspidalLabel,
    GrothendieckElement,
    HalfInt,
    LadderError,
    ModuleKey,
    Segment,
    Segments,
    StandardModule,
    ZERO_REP,
    ZeroRep,
    check_module_key,
    factor_key,
    middle_keys,
    piece_keys,
    terms_of_keys,
)
from .datum import DatumBlock, LadderDatum, MINUS_HALF, standard_key, validate_datum


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


# One pair's share: None for a zero Steinberg factor; a tuple of segment keys,
# empty for a unit factor; or, for an inverted pair, a list of its piece keys
# under each sign choice, +1 before -1.
_PairShare = (
    tuple[tuple[int, int, str, int], ...]
    | list[tuple[tuple[str, int, int], ...] | None]
    | None
)


def _pair_share(xs: Sequence[int], rid: str, low: int, high: int) -> _PairShare:
    """Read the pair ``(low, high)`` of a block permutation, exponents doubled.

    With ``low < high`` the pair is kept in Langlands position as the
    Steinberg factor ``[x_low, -x_high]``: its :func:`factor_key`.
    Otherwise it is inverted into two pieces of sizes ``x_low + 1`` and
    ``x_high + 1`` of one sign: the piece keys of each sign choice, +1 before
    -1, None for a choice that leaves the summand out.
    """
    if low < high:
        return factor_key(rid, xs[low - 1], -xs[high - 1])
    a1, a2 = xs[low - 1] + 1, xs[high - 1] + 1
    return [piece_keys(rid, ((a1, sign), (a2, sign))) for sign in (1, -1)]


def _perm_shares(pairs: list[_PairShare], middle: tuple | None) -> list[ModuleKey | None] | None:
    """One block permutation's shares of its summands, in sign-choice order,
    from its pairs' shares and its middle zone's piece keys; None where a
    sign choice leaves the summand out, and None for all when a zero factor
    or the middle zone does.  A share is a pair (segment keys, piece keys),
    each sorted, in the form of :meth:`StandardModule.sort_key`."""
    if middle is None or None in pairs:
        return None
    seg_keys = tuple(sorted([key for share in pairs if isinstance(share, tuple) for key in share]))
    return [
        None if None in chosen else (seg_keys, tuple(sorted(sum(chosen, middle))))
        for chosen in itertools.product(*[share for share in pairs if isinstance(share, list)])
    ]


def _block_walk(block: DatumBlock) -> Iterator[tuple[tuple[int, ...], int, list[ModuleKey]]]:
    """Each admissible permutation of a block (one-line images, 1-based), in
    lexicographic order, with its sign and the shares of its surviving
    summands (:func:`_perm_shares`), in sign-choice order.

    Permutation ``A + B + tail`` (see :func:`_zones`) pairs ``A[j]`` with
    ``tail[l-1-j]``, so each (low, high) pair's share is read from a table,
    filled with every pair of A x C before the zone's tails, the killed sign
    choices dropped; each middle zone's piece keys are computed once.  The
    sign is that of ``A + B + C`` times that of the tail's order of C.
    """
    l, rid = block.l, block.rho.id
    xs = [x.twice for x in block.exponents]
    table: dict[tuple[int, int], _PairShare] = {}

    def pair(low: int, high: int) -> _PairShare:
        """The share of pair ``(low, high)``, computed on its first reading."""
        if (low, high) not in table:
            share = _pair_share(xs, rid, low, high)
            if isinstance(share, list):
                share = [keys for keys in share if keys is not None]
            table[low, high] = share
        return table[low, high]

    middles: dict[tuple[int, ...], tuple[tuple[str, int, int], ...] | None] = {}
    tails = list(itertools.permutations(range(l)))  # positions in C
    tail_signs = [permutation_sign([i + 1 for i in tail]) for tail in tails]
    for zone_a, zone_b, zone_c in _zones(block):
        # every pair some tail reads, each checked even if a zero factor skips its tail
        rows = [[pair(a, c) for c in zone_c] for a in zone_a]
        if zone_b not in middles:
            middles[zone_b] = middle_keys(xs, rid, block.eta, zone_b)
        head = zone_a + zone_b
        base = permutation_sign(head + zone_c)
        for tail, tail_sign in zip(tails, tail_signs):
            shares = _perm_shares([row[c] for row, c in zip(rows, reversed(tail))], middles[zone_b])
            yield head + tuple([zone_c[i] for i in tail]), base * tail_sign, shares or []


def _block_shares(block: DatumBlock) -> dict[ModuleKey, int]:
    """One block's shares of the summands (:func:`_block_walk`), summed with
    the permutation signs, coefficient 0 included, in first-seen order."""
    acc: dict[ModuleKey, int] = {}
    for _, sign, shares in _block_walk(block):
        for key in shares:
            acc[key] = acc.get(key, 0) + sign
    return acc


def _tuples(d: LadderDatum) -> Iterator[tuple[SigmaElement, list[list[ModuleKey]]]]:
    """The product of the blocks' walks: each permutation tuple, in
    lexicographic order, with its blocks' shares."""
    for combo in itertools.product(*[list(_block_walk(b)) for b in d.blocks]):
        sigma = SigmaElement(tuple(p for p, _, _ in combo), math.prod(s for _, s, _ in combo))
        yield sigma, [shares for _, _, shares in combo]


def enumerate_sigma(d: LadderDatum) -> list[SigmaElement]:
    """All admissible permutation tuples, in lexicographic order; ``d`` is
    validated first."""
    validate_datum(d)
    return [sigma for sigma, _ in _tuples(d)]


def _join(key: ModuleKey, share: ModuleKey) -> ModuleKey:
    """The key of a product of shares over distinct labels: every segment
    and piece key names its label, so the key determines its shares."""
    return tuple(sorted(key[0] + share[0])), tuple(sorted(key[1] + share[1]))


def _summand_keys(per_block: Iterable[list[ModuleKey | None]]) -> list[ModuleKey | None]:
    """A permutation tuple's summand keys, over the product of its blocks'
    sign choices; None where a block's share is."""
    return [
        None if None in shares else functools.reduce(_join, shares, ((), ()))
        for shares in itertools.product(*per_block)
    ]


def _modules(d: LadderDatum, keys: list[ModuleKey]) -> dict[ModuleKey, StandardModule]:
    """Each distinct key's module, once the key passes
    :func:`check_module_key`, the keys checked in order."""
    labels = {b.rho.id: b.rho for b in d.blocks}
    distinct = list(dict.fromkeys(keys))
    for key in distinct:
        check_module_key(d.group, labels, key)
    built = terms_of_keys(d.group, labels, [(key, 1) for key in distinct])
    return {key: module for key, (module, _) in zip(distinct, built)}


def assemble_i_sigma(d: LadderDatum, sigma: SigmaElement) -> list[StandardModule | ZeroRep]:
    """The direct-sum summands contributed by one permutation tuple.

    Summands are listed over sign choices on the inverted pairs, +1 before
    -1 per pair, pairs ordered by block then pair index; convention-killed
    summands appear as the zero sentinel.  Every pair is read, each block
    permutation goes through the walk's step (:func:`_perm_shares`), and
    each module is built from a checked key (:func:`_modules`).
    """
    per_block = []
    for block, perm in zip(d.blocks, sigma.perms):
        t, l, rid = block.t, block.l, block.rho.id
        xs = [x.twice for x in block.exponents]
        pairs = [_pair_share(xs, rid, perm[j], perm[t - 1 - j]) for j in range(l)]
        shares = _perm_shares(pairs, middle_keys(xs, rid, block.eta, perm[l : t - l]))
        # a summand left out per sign choice when a zero factor or the middle zone leaves all out
        per_block.append(shares or [None] * 2 ** sum(isinstance(share, list) for share in pairs))
    keys = _summand_keys(per_block)
    modules = _modules(d, [key for key in keys if key])
    return [modules[key] if key else ZERO_REP for key in keys]


@dataclass(frozen=True)
class TableRow:
    sigma: SigmaElement
    summands: tuple[StandardModule, ...]  # surviving summands, sign-choice order


def sigma_table(d: LadderDatum) -> list[TableRow]:
    """The expansion as printable rows: each permutation tuple of the blocks'
    walks, its sign, and its surviving summands in :func:`assemble_i_sigma`
    order, each distinct key checked and built once (:func:`_modules`)."""
    validate_datum(d)
    rows = [(sigma, _summand_keys(shares)) for sigma, shares in _tuples(d)]
    modules = _modules(d, [key for _, keys in rows for key in keys])
    return [TableRow(sigma, tuple([modules[key] for key in keys])) for sigma, keys in rows]


def expansion_rows(
    d: LadderDatum, projected: bool = True
) -> tuple[int, dict[str, CuspidalLabel], list[tuple[ModuleKey, int]]]:
    """The signed sum of the permutation summands, optionally
    support-projected, on keys: the rank, the labels by id, and the sorted
    kept ``(key, coefficient)`` rows.

    The sum is the product of the per-block sums of shares
    (:func:`_block_shares`).  Every distinct key, coefficient 0 included,
    passes :func:`check_module_key`; the nonzero keys are sorted, and the
    projection keeps those whose support is that of :func:`standard_key`.
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
        # imported here, so that the general-linear expansion does not load it
        from .support import SupportFilter

        support = SupportFilter.for_key(d.group, labels, standard_key(d))
        kept = [(key, c) for key, c in kept if support.keeps(d.group, key)]
    return rank, labels, kept


def determinantal_formula(d: LadderDatum, projected: bool = True) -> GrothendieckElement:
    """Signed sum of the permutation summands, optionally support-projected:
    the rows of :func:`expansion_rows`, a module built for each."""
    rank, labels, kept = expansion_rows(d, projected)
    return GrothendieckElement(rank, terms_of_keys(d.group, labels, kept))


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


# A product of a general-linear expansion on doubled ints: its factors'
# :func:`factor_key` keys, sorted, and its coefficient.
GLRow = tuple[tuple[tuple[int, int, str, int], ...], int]


def gl_rows(g: GLLadder) -> list[GLRow]:
    """The terms of :func:`gl_determinantal_formula` on doubled ints, sorted.

    Only the permutations whose every factor ``[x_i, y_j]`` is nonzero are
    walked, row by row: level i holds the choices of columns for rows
    0 .. i, each with its factors' keys and its sign.  The ``y_j`` strictly
    increase, so the columns row ``i`` may take form a prefix, and the sign
    is counted as inversions against the columns already used.  Nothing
    cancels and nothing is merged: the ``x_i`` and the ``y_j`` strictly
    increase, so a product's kept factors name their rows and columns, and
    each remaining row, a unit factor ``[x_i, x_i + 1]``, names its column;
    a product comes from one permutation only, with coefficient +-1.
    """
    rid = g.rho.id
    # per row, each factor before the first zero one: its key, () for a unit
    keys: list[list[tuple[tuple[int, int, str, int], ...]]] = []
    for x, _ in g.segments:
        keys.append([])
        for _, y in g.segments:
            factor = factor_key(rid, x.twice, y.twice)
            if factor is None:
                break
            keys[-1].append(factor)
    # the prefixes grow with i, so rows 0..i need i + 1 columns among row i's prefix
    if any(len(row) <= i for i, row in enumerate(keys)):
        return []
    # (the columns used as a bit set, the factors' keys, the sign); each
    # level is popped, so that a partial product is freed once extended
    level: list[tuple[int, tuple, int]] = [(0, (), 1)]
    for row in keys:
        extended: list[tuple[int, tuple, int]] = []
        while level:
            used, product, sign = level.pop()
            extended += [
                (used | 1 << j, product + key, -sign if (used >> j).bit_count() % 2 else sign)
                for j, key in enumerate(row)
                if not used >> j & 1
            ]
        level = extended
    rows = []
    while level:
        _, product, sign = level.pop()
        rows.append((tuple(sorted(product)), sign))
    rows.sort()
    return rows


def gl_determinantal_formula(g: GLLadder) -> GLCombination:
    """Alternating sum over the permutations of the lower endpoints: the
    terms of :func:`gl_rows`, each segment built once (:class:`Segments`)."""
    segments = Segments({g.rho.id: g.rho})
    terms = [(tuple([segments[key] for key in product]), c) for product, c in gl_rows(g)]
    return GLCombination(tuple(terms))
