"""Cuspidal supports and the support projection on formal combinations.

A support is a multiset of cuspidal exponents per label (closed under
negation, since a twist and its dual always enter together) plus a
supercuspidal core, recorded as a ladder datum with no pairing.  Supports of
discrete-series parameters are computed by a two-rule reduction: a hole rule
peeling the top exponent of an isolated piece, and a pair rule dissolving an
adjacent equal-sign pair into a symmetric exponent interval counted twice.
The reduction is validated against the bundled golden corpus; outside the
parameters reachable from ladder data it should be treated as
conjecture-grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (
    CuspidalLabel,
    GrothendieckElement,
    HalfInt,
    LadderError,
    StandardModule,
    TemperedParam,
)
from .datum import DatumBlock, LadderDatum, canonical_form, validate_datum


class UnsupportedParameterError(LadderError):
    pass


@dataclass(frozen=True)
class SupportMultiset:
    """Exponent multiset per label plus a supercuspidal core datum.

    The core is always stored in canonical form, so equality of values is
    equality of supports of representations.
    """

    exponents: tuple[tuple[CuspidalLabel, tuple[HalfInt, ...]], ...]
    core: LadderDatum

    @staticmethod
    def of(
        exponents: Mapping[CuspidalLabel, Iterable[HalfInt]], core: LadderDatum
    ) -> "SupportMultiset":
        entries = []
        for rho in sorted(exponents, key=lambda r: r.id):
            values = tuple(sorted(exponents[rho], key=lambda v: v.twice))
            if values:
                entries.append((rho, values))
        return SupportMultiset(tuple(entries), canonical_form(core))

    @property
    def exponent_dimension(self) -> int:
        return sum(rho.d * len(values) for rho, values in self.exponents)


def _reduce_label(
    rho: CuspidalLabel, pieces: dict[HalfInt, int]
) -> tuple[list[HalfInt], DatumBlock | None]:
    """Run the hole/pair reduction for one label; return (exponents, core block)."""
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


def supp_discrete_series(t: TemperedParam) -> SupportMultiset:
    """Support of a multiplicity-free, size-0-free tempered parameter."""
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
        collected, core_block = _reduce_label(rho, dict(by_label[rho]))
        if collected:
            exponents[rho] = collected
        if core_block is not None:
            blocks.append(core_block)
    core = LadderDatum.of(t.group, blocks)
    validate_datum(core)
    return SupportMultiset.of(exponents, core)


def supp_standard_module(s: StandardModule) -> SupportMultiset:
    """Segment exponents with their duals, plus the tempered support."""
    tail = supp_discrete_series(s.tempered)
    exponents: dict[CuspidalLabel, list[HalfInt]] = {
        rho: list(values) for rho, values in tail.exponents
    }
    for seg in s.segments:
        slot = exponents.setdefault(seg.rho, [])
        for v in seg.exponents():
            slot.extend([v, -v])
    return SupportMultiset.of(exponents, tail.core)


def _doubled(s: SupportMultiset) -> dict[CuspidalLabel, list[int]]:
    return {rho: [v.twice for v in values] for rho, values in s.exponents}


def project_ps(target: SupportMultiset, elem: GrothendieckElement) -> GrothendieckElement:
    """Keep exactly the terms whose support equals the target.

    This is the filter ``supp_standard_module(m) == target``, with the
    exponents compared as sorted doubled integers per label, and the support
    of each distinct tempered part computed once.
    """
    wanted = _doubled(target)
    tails: dict[TemperedParam, tuple[bool, dict[CuspidalLabel, list[int]]]] = {}
    kept = []
    for m, c in elem.terms:
        entry = tails.get(m.tempered)
        if entry is None:
            tail = supp_discrete_series(m.tempered)
            entry = tails[m.tempered] = (tail.core == target.core, _doubled(tail))
        core_matches, tail_exponents = entry
        if not core_matches:
            continue
        exponents = {rho: list(values) for rho, values in tail_exponents.items()}
        for seg in m.segments:
            slot = exponents.setdefault(seg.rho, [])
            for v in range(seg.y.twice, seg.x.twice + 1, 2):
                slot += (v, -v)
        if {rho: sorted(values) for rho, values in exponents.items()} == wanted:
            kept.append((m, c))
    return GrothendieckElement(elem.rank, tuple(kept))  # a subsequence of sorted, merged terms
