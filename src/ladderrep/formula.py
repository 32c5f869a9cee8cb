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
from typing import Iterable, Sequence

from .core import (
    GrothendieckElement,
    HalfInt,
    LadderError,
    Segment,
    StandardModule,
    TemperedParam,
    TemperedPiece,
    ZeroRep,
    is_zero,
    make_standard_module,
    steinberg_product,
    sum_coefficients,
    CuspidalLabel,
)
from .datum import DatumBlock, LadderDatum, MINUS_HALF, validate_datum
from .graph import supp_ladder
from .support import project_ps


def permutation_sign(perm: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


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


def assemble_i_sigma(
    d: LadderDatum, sigma: SigmaElement
) -> list[StandardModule | ZeroRep]:
    """The direct-sum summands contributed by one permutation tuple.

    Summands are listed over sign choices on the inverted pairs, +1 before
    -1 per pair, pairs ordered by block then pair index; convention-killed
    summands appear as the zero sentinel.
    """
    segments: list[Segment] = []
    fixed: list[TemperedPiece] = []
    pairs: list[tuple[CuspidalLabel, int, int]] = []
    for block, perm in zip(d.blocks, sigma.perms):
        t, l = block.t, block.l
        for j in range(1, l + 1):
            low, high = perm[j - 1], perm[t - j]
            if low < high:
                segments.append(Segment(block.rho, block.x(low), -block.x(high)))
            else:
                a1 = block.x(low).twice + 1
                a2 = block.x(high).twice + 1
                if a1 < 0 or a2 < 0:
                    raise AssertionError("negative piece size escaped the membership constraints")
                pairs.append((block.rho, a1, a2))
        for i in range(l + 1, t - l + 1):
            xi = block.x(perm[i - 1])
            if xi.twice + 1 < 0:
                raise AssertionError("negative piece size escaped the membership constraints")
            fixed.append(TemperedPiece(block.rho, xi.twice + 1, (-1) ** (i - l - 1) * block.eta))
    summands: list[StandardModule | ZeroRep] = []
    for delta in itertools.product((1, -1), repeat=len(pairs)):
        pieces = list(fixed)
        for (rho, a1, a2), sign in zip(pairs, delta):
            pieces.append(TemperedPiece(rho, a1, sign))
            pieces.append(TemperedPiece(rho, a2, sign))
        summands.append(
            make_standard_module(segments, TemperedParam(d.group, tuple(pieces)))
        )
    return summands


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
    """Signed sum of the permutation summands, optionally support-projected."""
    rank = validate_datum(d)
    items: list[tuple[StandardModule, int]] = []
    for sigma in enumerate_sigma(d):
        for summand in assemble_i_sigma(d, sigma):
            if not is_zero(summand):
                assert isinstance(summand, StandardModule)
                items.append((summand, sigma.sign))
    element = GrothendieckElement.from_items(rank, items)
    if projected:
        element = project_ps(supp_ladder(d), element)
    return element


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

    @staticmethod
    def from_items(items: Iterable[tuple[GLProduct, int]]) -> "GLCombination":
        terms = tuple(
            sorted(
                ((p, c) for p, c in sum_coefficients(items).items() if c != 0),
                key=lambda pc: tuple(s.sort_key() for s in pc[0]),
            )
        )
        return GLCombination(terms)

    def __len__(self) -> int:
        return len(self.terms)


def gl_determinantal_formula(g: GLLadder) -> GLCombination:
    """Alternating sum over all permutations of the lower endpoints."""
    t = g.t
    items: list[tuple[GLProduct, int]] = []
    for perm in itertools.permutations(range(t)):
        product = steinberg_product(
            Segment(g.rho, g.segments[i][0], g.segments[perm[i]][1]) for i in range(t)
        )
        if is_zero(product):
            continue
        items.append((product, permutation_sign([p + 1 for p in perm])))  # type: ignore[arg-type]
    return GLCombination.from_items(items)
