"""Cuspidal supports and the support projection on formal combinations.

A support is a multiset of cuspidal exponents per label (closed under
negation, since a twist and its dual always enter together) plus a
supercuspidal core, recorded as a ladder datum with no pairing.  Supports of
discrete-series parameters are computed by a two-rule reduction: a hole rule
peeling the top exponent of an isolated piece, and a pair rule dissolving an
adjacent equal-sign pair into a symmetric exponent interval counted twice.
Supports are computed through :class:`Supports`, which memoizes reductions and cores.
The reduction is validated against the bundled golden corpus; outside the
parameters reachable from ladder data it should be treated as
conjecture-grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .core import (
    CuspidalLabel,
    GroupKind,
    GrothendieckElement,
    HalfInt,
    LadderError,
    ModuleKey,
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


def _reduce_label(
    rho: CuspidalLabel, pieces: Sequence[tuple[int, int]]
) -> tuple[list[int], DatumBlock | None]:
    """Run the hole/pair reduction for one label; return (doubled exponents, core block).

    The pieces are ``(2x, sign)``, x the exponent, in increasing order.
    They are scanned from the top down.  A rule firing at a piece
    changes only whether the piece just above it is blocked (its neighbour
    below is gone), so the scan resumes there instead of at the top; every
    piece further up was passed over and still cannot fire.
    """
    xs = [x for x, _ in pieces]
    signs = [sign for _, sign in pieces]
    collected: list[int] = []
    i = len(xs) - 1
    while i >= 0:
        x, sign = xs[i], signs[i]
        if i and xs[i - 1] == x - 2:
            if signs[i - 1] != sign:
                i -= 1
                continue
            # pair rule: the two sign choices exhaust an induced module whose
            # GL factor covers [-(x-1), x-1].
            del xs[i - 1 : i + 1], signs[i - 1 : i + 1]
            collected += (x, -x)
            for v in range(x - 2, 1 - x, -2):
                collected += (v, v)
            i = min(i - 1, len(xs) - 1)
        elif x >= 2 or (x == 1 and sign == 1):
            # hole rule: peel the top exponent of an isolated piece.
            collected += (x, -x)
            if x >= 2:
                xs[i] = x - 2  # stays sorted: x - 2 was absent
                i = min(i + 1, len(xs) - 1)
            else:  # size would be 0: convention drop
                del xs[i], signs[i]
                i = min(i, len(xs) - 1)
        else:
            i -= 1
    if not xs:
        return collected, None
    bottom = xs[0]
    if bottom not in (0, 1):
        raise UnsupportedParameterError(
            f"label {rho.id!r}: irreducible remainder does not start at 0 or 1/2"
        )
    for i, v in enumerate(xs):
        if v != bottom + 2 * i:
            raise UnsupportedParameterError(
                f"label {rho.id!r}: irreducible remainder is not a staircase"
            )
        if signs[i] != signs[0] * (-1) ** i:
            raise UnsupportedParameterError(
                f"label {rho.id!r}: irreducible remainder signs do not alternate"
            )
    if bottom == 1 and signs[0] != -1:
        raise UnsupportedParameterError(
            f"label {rho.id!r}: remainder with bottom 1/2 must carry sign -1"
        )
    return collected, DatumBlock(rho, tuple(HalfInt(v) for v in xs), 0, signs[0])


def _exponents(
    tail: Mapping[str, list[int]], segments: Iterable[tuple[int, int, str, int]]
) -> dict[str, list[int]]:
    """A tempered part's exponents plus, per segment key ``(x + y, x, label
    id, y)``, the exponents x..y and their negatives: sorted doubled ints
    per label id."""
    got = {rid: list(values) for rid, values in tail.items()}
    for _, x, rid, y in segments:
        slot = got.setdefault(rid, [])
        for v in range(y, x + 1, 2):
            slot += (v, -v)
    return {rid: sorted(values) for rid, values in got.items()}


class Supports:
    """Supports of module keys, their labels looked up by id in ``labels``:
    each label's piece set is reduced (:func:`_reduce_label`), and each
    distinct core validated, once per object."""

    def __init__(self, labels: Mapping[str, CuspidalLabel]) -> None:
        self.labels = labels
        self.reductions: dict[tuple[str, tuple], tuple[list[int], DatumBlock | None]] = {}
        self.cores: dict[tuple[GroupKind, tuple], LadderDatum] = {}

    def tail(
        self, group: GroupKind, pieces: Iterable[tuple[str, int, int]]
    ) -> tuple[dict[str, list[int]], LadderDatum]:
        """Support of a multiplicity-free, size-0-free tempered part.

        The pieces are sorted keys ``(label id, size, -sign)``.  Returns the
        doubled exponents per label id and the validated core, not yet in
        canonical form.
        """
        by_label: dict[str, list[tuple[int, int]]] = {}
        for rid, a, neg in pieces:
            if a == 0:
                raise UnsupportedParameterError("parameter must be normalized (no size-0 pieces)")
            slot = by_label.setdefault(rid, [])
            if slot and slot[-1][0] == a - 1:  # equal sizes are adjacent in sorted order
                raise UnsupportedParameterError(
                    f"label {rid!r}: repeated piece of size {a} is unsupported"
                )
            slot.append((a - 1, -neg))
        exponents: dict[str, list[int]] = {}
        blocks = []
        for rid in sorted(by_label):
            key = (rid, tuple(by_label[rid]))
            reduced = self.reductions.get(key)
            if reduced is None:
                reduced = self.reductions[key] = _reduce_label(self.labels[rid], key[1])
            collected, core_block = reduced
            if collected:
                exponents[rid] = collected
            if core_block is not None:
                blocks.append(core_block)
        key = (group, tuple(blocks))
        core = self.cores.get(key)
        if core is None:
            core = LadderDatum.of(group, blocks)
            validate_datum(core)
            self.cores[key] = core
        return exponents, core

    def of_key(self, group: GroupKind, key: ModuleKey) -> SupportMultiset:
        """Support of the module of a key: its tempered part's (:meth:`tail`)
        plus its segments' exponents and their negatives."""
        tail, core = self.tail(group, key[1])
        exponents = {self.labels[rid]: map(HalfInt, v) for rid, v in _exponents(tail, key[0]).items()}
        return SupportMultiset.of(exponents, core)


def supp_discrete_series(t: TemperedParam) -> SupportMultiset:
    """Support of a multiplicity-free, size-0-free tempered parameter."""
    return Supports({p.rho.id: p.rho for p in t.pieces}).of_key(t.group, ((), t.sort_key()))


class SupportFilter:
    """The test ``support(module) == target`` on module keys, the target
    held as sorted doubled exponents per label id (:func:`_exponents`) and a
    canonical core; each distinct tempered part's support is computed once,
    through ``supports``."""

    def __init__(self, supports: Supports, wanted: dict[str, list[int]], core: LadderDatum) -> None:
        self.supports = supports
        self.wanted = wanted
        self.core = core
        self.tails: dict[Hashable, dict[str, list[int]] | None] = {}

    @staticmethod
    def for_key(
        group: GroupKind, labels: Mapping[str, CuspidalLabel], key: ModuleKey
    ) -> "SupportFilter":
        """The filter aimed at the support of the module of ``key``, read on
        doubled ints through the filter's own :class:`Supports`."""
        supports = Supports(labels)
        tail, core = supports.tail(group, key[1])
        return SupportFilter(supports, _exponents(tail, key[0]), canonical_form(core))

    def keeps(self, group: GroupKind, key: ModuleKey) -> bool:
        """Whether the module of ``key`` has the target support.

        Its tempered part, whose dimension fixes the group, is reduced the
        first time it is met.
        """
        seg_keys, tail_key = key
        if tail_key not in self.tails:
            exponents, core = self.supports.tail(group, tail_key)
            self.tails[tail_key] = exponents if canonical_form(core) == self.core else None
        tail = self.tails[tail_key]
        return tail is not None and _exponents(tail, seg_keys) == self.wanted


def project_ps(target: SupportMultiset, elem: GrothendieckElement) -> GrothendieckElement:
    """Keep exactly the terms whose support equals the target."""
    labels = {x.rho.id: x.rho for m, _ in elem.terms for x in m.segments + m.tempered.pieces}
    wanted = {rho.id: [v.twice for v in values] for rho, values in target.exponents}
    support = SupportFilter(Supports(labels), wanted, target.core)
    kept = [(m, c) for m, c in elem.terms if support.keeps(m.group, m.sort_key())]
    return GrothendieckElement(elem.rank, tuple(kept))  # a subsequence of sorted, merged terms
