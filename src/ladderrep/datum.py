"""Ladder data: the central input object, its validation, and its Langlands data.

A ladder datum assigns to finitely many self-dual cuspidal labels a strictly
increasing exponent set X, a pairing count l and a sign eta, subject to the
positivity, eta-forcing, global-sign and dimension clauses checked by
:func:`validate_datum`.  The datum determines a standard module (segments
pairing the outer exponents, a tempered parameter on the middle ones) whose
unique irreducible subrepresentation is the ladder representation the rest
of the engine manipulates symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import (
    CuspidalLabel,
    GroupKind,
    HalfInt,
    LadderError,
    ModuleKey,
    Segment,
    StandardModule,
    TemperedParam,
    check_module_key,
    factor_key,
    middle_keys,
    terms_of_keys,
)

MINUS_HALF = HalfInt(-1)


class DatumValidationError(LadderError):
    """A validation failure, carrying the violated clause and the block label."""

    def __init__(self, clause: str, block_id: str | None, message: str):
        super().__init__(f"[{clause}]{'' if block_id is None else f' block {block_id!r}'}: {message}")
        self.clause = clause
        self.block_id = block_id


@dataclass(frozen=True)
class DatumBlock:
    """The (X, l, eta) triple attached to one cuspidal label."""

    rho: CuspidalLabel
    exponents: tuple[HalfInt, ...]
    l: int
    eta: int

    @property
    def t(self) -> int:
        return len(self.exponents)

    @property
    def is_empty(self) -> bool:
        return not self.exponents

    def x(self, index: int) -> HalfInt:
        """1-based exponent accessor."""
        return self.exponents[index - 1]


@dataclass(frozen=True)
class LadderDatum:
    group: GroupKind
    blocks: tuple[DatumBlock, ...]

    @staticmethod
    def of(group: GroupKind, blocks) -> "LadderDatum":
        """Canonical constructor: drops empty blocks, sorts by label id."""
        kept = tuple(sorted((b for b in blocks if not b.is_empty), key=lambda b: b.rho.id))
        ids = [b.rho.id for b in kept]
        if len(set(ids)) != len(ids):
            raise DatumValidationError("duplicate-label", None, "labels must be distinct")
        return LadderDatum(group, kept)

    def block(self, rho_id: str) -> DatumBlock:
        for b in self.blocks:
            if b.rho.id == rho_id:
                return b
        raise LadderError(f"datum has no block for label {rho_id!r}")

    def has_block(self, rho_id: str) -> bool:
        return any(b.rho.id == rho_id for b in self.blocks)

    def sort_key(self) -> tuple:
        return (
            self.group.value,
            tuple(
                (b.rho.id, b.rho.d, b.rho.parity.value, tuple(x.twice for x in b.exponents), b.l, b.eta)
                for b in self.blocks
            ),
        )

    @cached_property
    def block_checks(self) -> tuple[tuple[int, int], ...]:
        """:func:`check_blocks` on this datum, run once per datum object.

        The datum is immutable, so the result holds for good.  A failure is
        not cached: it is raised again, with the same message, on each use.
        """
        return tuple(check_blocks(self))


def check_block(rho: CuspidalLabel, xs: Sequence[int], l: int, eta: int) -> tuple[int, int]:
    """Check one block's clauses on its doubled exponents ``xs``; return the
    block's sign and dimension.

    The first violated clause is reported by name, in this order: parity,
    ordering, l-range, pairing-positivity, middle-positivity, eta-forcing.
    """
    rid = rho.id
    t = len(xs)
    for x in xs:
        if not rho.parity.matches_twice(x):
            raise DatumValidationError(
                "parity", rid, f"exponent {HalfInt(x)} lies outside the label's parity class"
            )
    for i in range(1, t):
        if not xs[i - 1] < xs[i]:
            raise DatumValidationError("ordering", rid, "exponents must strictly increase")
    if not 0 <= 2 * l <= t:
        raise DatumValidationError("l-range", rid, f"need 0 <= 2l <= t, got l={l}, t={t}")
    for j in range(l):
        if xs[j] + xs[t - 1 - j] < 0:
            raise DatumValidationError(
                "pairing-positivity",
                rid,
                f"x_{j + 1} + x_{t - j} = {HalfInt(xs[j])} + {HalfInt(xs[t - 1 - j])} < 0",
            )
    for i in range(l, t - l):
        if xs[i] < -1:
            raise DatumValidationError(
                "middle-positivity", rid, f"middle exponent x_{i + 1} = {HalfInt(xs[i])} < -1/2"
            )
    if eta not in (1, -1):
        raise DatumValidationError("eta-forcing", rid, "eta must be +1 or -1")
    if (not xs or (l < t - l and xs[l] == -1)) and eta != 1:
        raise DatumValidationError("eta-forcing", rid, "eta is forced to +1 here")
    if xs and 2 * l == t and eta != -1:
        raise DatumValidationError("eta-forcing", rid, "eta is forced to -1 when 2l = t")
    return (-1) ** (t // 2 + l) * eta**t, (sum(xs) + t) * rho.d


def check_total(group: GroupKind, sign: int, dimension: int) -> int:
    """Check the clauses on the whole datum, given the product of its blocks'
    signs and the sum of their dimensions; return the group rank n."""
    if sign != 1:
        raise DatumValidationError("global-sign", None, "sign product over blocks is -1")
    if dimension % 2 != group.dimension_parity:
        raise DatumValidationError(
            "dimension", None, f"total dimension {dimension} has the wrong parity for {group.value}"
        )
    n = (dimension - group.dimension_parity) // 2
    if n < 0:
        raise DatumValidationError("dimension", None, f"negative rank from dimension {dimension}")
    return n


def check_blocks(d: LadderDatum) -> list[tuple[int, int]]:
    """Check the duplicate-label clause, then each block's clauses
    (:func:`check_block`) in label order; return each block's sign and
    dimension."""
    ids = [b.rho.id for b in d.blocks]
    if len(set(ids)) != len(ids):
        raise DatumValidationError("duplicate-label", None, "labels must be distinct")
    return [check_block(b.rho, [x.twice for x in b.exponents], b.l, b.eta) for b in d.blocks]


def validate_datum(d: LadderDatum) -> int:
    """Check every defining clause; return the group rank n on success.

    The first violated clause is reported by name: those of
    :func:`check_blocks`, then global-sign and dimension
    (:func:`check_total`).  The block checks run once per datum object
    (:attr:`LadderDatum.block_checks`).
    """
    sign, dimension = 1, 0
    for s, n in d.block_checks:
        sign *= s
        dimension += n
    return check_total(d.group, sign, dimension)


def canonical_form(d: LadderDatum) -> LadderDatum:
    """Drop the formal -1/2 middle exponent of each block, if present.

    A block whose first middle exponent is -1/2 contributes a size-0 piece
    with sign +1 to the tempered parameter, so the same representation is
    named by the reduced block with that exponent removed and eta flipped to
    -1 (or +1 if the block empties).  Canonical data make datum equality
    meaningful as equality of representations.
    """
    changed = False
    blocks = []
    for b in d.blocks:
        if b.l < b.t - b.l and b.x(b.l + 1) == MINUS_HALF:
            exps = b.exponents[: b.l] + b.exponents[b.l + 1 :]
            eta = -1 if exps else 1
            blocks.append(DatumBlock(b.rho, exps, b.l, eta))
            changed = True
        else:
            blocks.append(b)
    if not changed:
        return d
    out = LadderDatum.of(d.group, blocks)
    validate_datum(out)
    return out


def is_canonical(d: LadderDatum) -> bool:
    return canonical_form(d) == d


@dataclass(frozen=True)
class LanglandsData:
    """The Langlands presentation read off the datum, in datum order."""

    segments: tuple[Segment, ...]
    tempered: TemperedParam


def standard_key(d: LadderDatum) -> ModuleKey:
    """The key of the standard module of a validated datum (never zero).

    It is the identity permutation's summand: each pair ``(x_j,
    x_{t-j+1})`` gives the Steinberg factor ``[x_j, -x_{t-j+1}]`` and the
    middle exponents give pieces with signs alternating from eta.
    """
    seg_keys: list[tuple[int, int, str, int]] = []
    pieces: list[tuple[str, int, int]] = []
    for b in d.blocks:
        t, l, rid = b.t, b.l, b.rho.id
        xs = [x.twice for x in b.exponents]
        factors = [factor_key(rid, xs[j], -xs[t - 1 - j]) for j in range(l)]
        middle = middle_keys(xs, rid, b.eta, range(l + 1, t - l + 1))
        # a unit or zero factor, or a killed middle, breaks pairing-positivity
        # or eta-forcing
        if not all(factors) or middle is None:
            raise AssertionError("standard module of a valid datum cannot vanish")
        for factor in factors:
            seg_keys += factor
        pieces += middle
    return tuple(sorted(seg_keys)), tuple(sorted(pieces))


def standard_module_of(d: LadderDatum) -> StandardModule:
    """The standard module attached to a datum, validated first, built from
    its key (:func:`standard_key`) once that passes :func:`check_module_key`."""
    validate_datum(d)
    key = standard_key(d)
    labels = {b.rho.id: b.rho for b in d.blocks}
    check_module_key(d.group, labels, key)
    return terms_of_keys(d.group, labels, [(key, 1)])[0][0]


def langlands_data_of(d: LadderDatum) -> LanglandsData:
    """Same content as :func:`standard_module_of`, keeping the datum's order."""
    tempered = standard_module_of(d).tempered  # validates d before any segment is built
    segments = tuple(
        Segment(b.rho, b.x(j), -b.x(b.t - j + 1)) for b in d.blocks for j in range(1, b.l + 1)
    )
    return LanglandsData(segments, tempered)
