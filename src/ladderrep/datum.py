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

from .core import (
    CuspidalLabel,
    GroupKind,
    HalfInt,
    LadderError,
    Segment,
    StandardModule,
    TemperedParam,
    TemperedPiece,
    is_zero,
    make_standard_module,
    normalize_tempered,
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

    @property
    def dimension(self) -> int:
        return (sum(x.twice for x in self.exponents) + self.t) * self.rho.d


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

    def replace_block(self, rho_id: str, new: DatumBlock | None) -> "LadderDatum":
        blocks = [b for b in self.blocks if b.rho.id != rho_id]
        if new is not None and not new.is_empty:
            blocks.append(new)
        return LadderDatum.of(self.group, blocks)

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def sort_key(self) -> tuple:
        return (
            self.group.value,
            tuple(
                (b.rho.id, b.rho.d, b.rho.parity.value, tuple(x.twice for x in b.exponents), b.l, b.eta)
                for b in self.blocks
            ),
        )


def _eta_is_forced_plus(block: DatumBlock) -> bool:
    """Eta is +1 when X is empty or when the first middle exponent is -1/2."""
    if block.is_empty:
        return True
    return block.l + 1 <= block.t - block.l and block.x(block.l + 1) == MINUS_HALF


def validate_datum(d: LadderDatum) -> int:
    """Check every defining clause; return the group rank n on success.

    The first violated clause is reported by name: parity, ordering,
    l-range, pairing-positivity, middle-positivity, eta-forcing,
    global-sign, dimension (plus duplicate-label for malformed inputs).
    """
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
        if _eta_is_forced_plus(b) and b.eta != 1:
            raise DatumValidationError("eta-forcing", rid, "eta is forced to +1 here")
        if not b.is_empty and 2 * b.l == b.t and b.eta != -1:
            raise DatumValidationError("eta-forcing", rid, "eta is forced to -1 when 2l = t")
        block_sign = (-1) ** (b.t // 2 + b.l) * (b.eta ** b.t)
        sign_product *= block_sign
    if sign_product != 1:
        raise DatumValidationError("global-sign", None, "sign product over blocks is -1")
    total = d.dimension
    if total % 2 != d.group.dimension_parity:
        raise DatumValidationError(
            "dimension", None, f"total dimension {total} has the wrong parity for {d.group.value}"
        )
    n = (total - d.group.dimension_parity) // 2
    if n < 0:
        raise DatumValidationError("dimension", None, f"negative rank from dimension {total}")
    return n


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
        if not b.is_empty and _eta_is_forced_plus(b) and b.x(b.l + 1) == MINUS_HALF:
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


def _datum_parts(d: LadderDatum) -> tuple[list[Segment], TemperedParam]:
    segments: list[Segment] = []
    pieces: list[TemperedPiece] = []
    for b in d.blocks:
        for j in range(1, b.l + 1):
            segments.append(Segment(b.rho, b.x(j), -b.x(b.t - j + 1)))
        for i in range(b.l + 1, b.t - b.l + 1):
            sign = (-1) ** (i - b.l - 1) * b.eta
            pieces.append(TemperedPiece(b.rho, b.x(i).twice + 1, sign))
    return segments, TemperedParam(d.group, tuple(pieces))


def standard_module_of(d: LadderDatum) -> StandardModule:
    """The standard module attached to a validated datum (never zero)."""
    segments, tempered = _datum_parts(d)
    module = make_standard_module(segments, tempered)
    if is_zero(module):
        raise AssertionError("standard module of a valid datum cannot vanish")
    assert isinstance(module, StandardModule)
    return module


def langlands_data_of(d: LadderDatum) -> LanglandsData:
    """Same content as :func:`standard_module_of`, keeping the datum's order."""
    segments, tempered = _datum_parts(d)
    norm = normalize_tempered(tempered)
    if is_zero(norm):
        raise AssertionError("tempered part of a valid datum cannot vanish")
    assert isinstance(norm, TemperedParam)
    return LanglandsData(tuple(segments), norm)
