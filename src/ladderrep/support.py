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


def _tail(
    group: GroupKind,
    labels: Mapping[str, CuspidalLabel],
    pieces: Iterable[tuple[str, int, int]],
    reductions: dict,
    cores: dict,
) -> tuple[dict[str, list[int]], LadderDatum]:
    """Support of a multiplicity-free, size-0-free tempered part.

    The pieces are sorted keys ``(label id, size, -sign)``.  Returns the
    doubled exponents per label id and the validated core, not yet in
    canonical form.  For as long as the caller keeps them, ``reductions``
    memoizes :func:`_reduce_label` per (label id, pieces) and ``cores`` the
    validated core per (group, core blocks).
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
        reduced = reductions.get(key)
        if reduced is None:
            reduced = reductions[key] = _reduce_label(labels[rid], key[1])
        collected, core_block = reduced
        if collected:
            exponents[rid] = collected
        if core_block is not None:
            blocks.append(core_block)
    key = (group, tuple(blocks))
    core = cores.get(key)
    if core is None:
        core = LadderDatum.of(group, blocks)
        validate_datum(core)
        cores[key] = core
    return exponents, core


def supp_discrete_series(t: TemperedParam) -> SupportMultiset:
    """Support of a multiplicity-free, size-0-free tempered parameter."""
    labels = {p.rho.id: p.rho for p in t.pieces}
    return key_support(t.group, labels, ((), t.sort_key()), ({}, {}))


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


def key_support(
    group: GroupKind, labels: Mapping[str, CuspidalLabel], key: ModuleKey, memos: tuple[dict, dict]
) -> SupportMultiset:
    """Support of the module of a key: its tempered part's (:func:`_tail`,
    with the memos ``reductions, cores``) plus its segments' exponents and
    their negatives."""
    tail, core = _tail(group, labels, key[1], *memos)
    exponents = _exponents(tail, key[0])
    return SupportMultiset.of({labels[rid]: map(HalfInt, v) for rid, v in exponents.items()}, core)


class SupportFilter:
    """The test ``support(module) == target`` on module keys, their labels
    looked up by id in ``labels``.

    A module's support is its tempered part's support plus, per segment
    ``[x, y]``, the exponents ``x..y`` and their negatives; exponents are
    compared as sorted doubled integers per label id.  The support of each
    distinct tempered part, and of each label's piece set, is computed once
    per filter, and each distinct core is validated once.
    """

    def __init__(self, target: SupportMultiset, labels: Mapping[str, CuspidalLabel]) -> None:
        self.core = target.core
        self.wanted = {rho.id: [v.twice for v in values] for rho, values in target.exponents}
        self.labels = labels
        self.tails: dict[Hashable, dict[str, list[int]] | None] = {}
        self.reductions: dict = {}
        self.cores: dict = {}

    @staticmethod
    def for_key(
        group: GroupKind, labels: Mapping[str, CuspidalLabel], key: ModuleKey
    ) -> "SupportFilter":
        """The filter aimed at the support of the module of ``key``
        (:func:`key_support`), computed through the filter's memos."""
        memos: tuple[dict, dict] = ({}, {})
        support = SupportFilter(key_support(group, labels, key, memos), labels)
        support.reductions, support.cores = memos
        return support

    def keeps(self, group: GroupKind, key: ModuleKey) -> bool:
        """Whether the module of ``key`` has the target support.

        Its tempered part, whose dimension fixes the group, is reduced the
        first time it is met.
        """
        seg_keys, tail_key = key
        if tail_key not in self.tails:
            exponents, core = _tail(group, self.labels, tail_key, self.reductions, self.cores)
            self.tails[tail_key] = exponents if canonical_form(core) == self.core else None
        tail = self.tails[tail_key]
        return tail is not None and _exponents(tail, seg_keys) == self.wanted


def project_ps(target: SupportMultiset, elem: GrothendieckElement) -> GrothendieckElement:
    """Keep exactly the terms whose support equals the target."""
    labels = {x.rho.id: x.rho for m, _ in elem.terms for x in m.segments + m.tempered.pieces}
    support = SupportFilter(target, labels)
    kept = [(m, c) for m, c in elem.terms if support.keeps(m.group, m.sort_key())]
    return GrothendieckElement(elem.rank, tuple(kept))  # a subsequence of sorted, merged terms
