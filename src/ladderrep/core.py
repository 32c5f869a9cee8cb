"""Exact arithmetic and the symbolic vocabulary shared by every module.

Half-integers are stored as doubled integers, cuspidal labels are formal
symbols carrying a block size and a parity class, and representations never
appear as anything richer than the symbols below: segments, Steinberg
factors with their degeneracy conventions, tempered parameters, standard
modules, and integer combinations of standard modules; segments are keyed
in :func:`factor_key` form and built once per key by :class:`Segments`.

All values are immutable and hashable, and every operation is a pure
function.  The zero representation is the absorbing sentinel ``ZERO_REP``,
threaded through assembly rather than raised as an error.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar, Union


class LadderError(Exception):
    """Base class for domain errors raised by the engine."""


class InvalidSegmentError(LadderError):
    pass


class NotStandardModuleError(LadderError):
    pass


class RankMismatchError(LadderError):
    pass


# ---------------------------------------------------------------------------
# half-integers

_HALFINT_TEXT = re.compile(r"([+-]?[0-9]+)(/2)?")


@functools.total_ordering
@dataclass(frozen=True)
class HalfInt:
    """An element of (1/2)Z, stored exactly as twice its value.

    No floating point is involved anywhere: addition, negation and
    comparison are plain integer operations on ``twice``.
    """

    twice: int

    @staticmethod
    def whole(value: int) -> "HalfInt":
        return HalfInt(2 * value)

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Read an integer ``"n"`` or a fraction ``"m/2"`` with ``m`` odd.

        The numbers are ASCII decimal digits with an optional sign and no
        inner spaces or underscores.
        """
        match = _HALFINT_TEXT.fullmatch(text.strip().replace("−", "-"))
        if match is None:
            raise ValueError(f"{text!r}: expected an integer or a fraction over 2")
        number, over_two = match.groups()
        if over_two is None:
            return HalfInt(2 * int(number))
        if int(number) % 2 == 0:
            raise ValueError(f"{text!r}: a fraction over 2 needs an odd numerator")
        return HalfInt(int(number))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def _coerce(self, other: Union["HalfInt", int]) -> "HalfInt":
        if isinstance(other, HalfInt):
            return other
        if isinstance(other, int):
            return HalfInt.whole(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union["HalfInt", int]) -> "HalfInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return HalfInt(self.twice + o.twice)

    __radd__ = __add__

    def __sub__(self, other: Union["HalfInt", int]) -> "HalfInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return HalfInt(self.twice - o.twice)

    def __rsub__(self, other: Union["HalfInt", int]) -> "HalfInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return HalfInt(o.twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __lt__(self, other: "HalfInt") -> bool:
        if not isinstance(other, HalfInt):
            return NotImplemented  # type: ignore[return-value]
        return self.twice < other.twice

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def hi(text: str) -> HalfInt:
    """Shorthand parser, convenient in tests and table transcriptions."""
    return HalfInt.parse(text)


# ---------------------------------------------------------------------------
# labels and groups


class Parity(Enum):
    """Parity class of the good exponents attached to a cuspidal label."""

    INTEGRAL = "integral"
    HALF_INTEGRAL = "half-integral"

    def matches(self, x: HalfInt) -> bool:
        return self.matches_twice(x.twice)

    def matches_twice(self, twice: int) -> bool:
        """Whether the exponent ``twice / 2`` lies in this class."""
        return (twice % 2 == 0) == (self is Parity.INTEGRAL)


class GroupKind(Enum):
    SO_ODD = "SOodd"
    SP = "Sp"

    @property
    def dimension_parity(self) -> int:
        """Total parameter dimension is 2n (SOodd) or 2n+1 (Sp)."""
        return 0 if self is GroupKind.SO_ODD else 1


@dataclass(frozen=True)
class CuspidalLabel:
    """A formal self-dual cuspidal symbol: opaque id, GL-block size, parity.

    Labels carry no analytic content; equality is by ``id`` alone, with
    ``d`` and ``parity`` required to be consistent wherever two labels meet.
    """

    id: str
    d: int
    parity: Parity

    def __post_init__(self) -> None:
        if self.d < 1:
            raise LadderError(f"label {self.id!r}: d must be a positive integer")


# ---------------------------------------------------------------------------
# segments and Steinberg products


def _check_segment(rho: CuspidalLabel, x: int, y: int) -> None:
    """Both doubled endpoints of a segment lie in its label's parity class."""
    if not (rho.parity.matches_twice(x) and rho.parity.matches_twice(y)):
        raise InvalidSegmentError(
            f"segment [{HalfInt(x)},{HalfInt(y)}] does not match the parity of label {rho.id!r}"
        )


@dataclass(frozen=True)
class Segment:
    """The exponent interval [x, x-1, ..., y] attached to a label.

    Degenerate inputs with y = x+1 or y > x+1 are allowed; they normalize to
    the unit and zero Steinberg factors respectively.
    """

    rho: CuspidalLabel
    x: HalfInt
    y: HalfInt

    def __post_init__(self) -> None:
        _check_segment(self.rho, self.x.twice, self.y.twice)

    @property
    def length(self) -> int:
        """Number of exponents, x - y + 1 (can be <= 0 for degenerate input)."""
        return (self.x.twice - self.y.twice) // 2 + 1

    def sort_key(self) -> tuple:
        return (self.x.twice + self.y.twice, self.x.twice, self.rho.id, self.y.twice)


def factor_key(rid: str, x: int, y: int) -> tuple[tuple[int, int, str, int], ...] | None:
    """The Steinberg factor ``[x, y]`` of label ``rid``, exponents doubled.

    A segment with x >= y is a proper factor, ``(key,)`` with the key in
    :meth:`Segment.sort_key` form; y = x+1 is the unit factor ``()``; y >
    x+1 is zero, None.
    """
    if y > x + 2:
        return None
    return ((x + y, x, rid, y),) if y <= x else ()


class Segments(dict):
    """The segment of each :func:`factor_key` key, its label looked up by id
    in ``labels``, built on first lookup: equal keys share one segment."""

    def __init__(self, labels: Mapping[str, CuspidalLabel]) -> None:
        self.labels = labels

    def __missing__(self, key: tuple[int, int, str, int]) -> Segment:
        segment = self[key] = Segment(self.labels[key[2]], HalfInt(key[1]), HalfInt(key[3]))
        return segment


# ---------------------------------------------------------------------------
# tempered parameters


def _check_piece(rho: CuspidalLabel, a: int, sign: int) -> None:
    """A piece has a size a >= 0, a sign +-1, and its exponent (a-1)/2 lies in
    the label's parity class."""
    if a < 0:
        raise LadderError("tempered piece with negative SL(2) size")
    if sign not in (1, -1):
        raise LadderError("tempered piece sign must be +1 or -1")
    if not rho.parity.matches_twice(a - 1):
        raise LadderError(f"piece of size {a} does not match the parity of label {rho.id!r}")


def _check_pieces(group: GroupKind, pieces: Sequence[tuple[CuspidalLabel, int, int]]) -> int:
    """Pieces ``(label, size, sign)``, in :meth:`TemperedPiece.sort_key` order:
    those with equal (label, size) carry equal signs, and their dimension has
    the group's parity.  Returns the dimension."""
    dimension = 0
    previous = None
    for rho, a, sign in pieces:
        if previous is not None and previous[:2] == (rho.id, a) and previous[2] != sign:
            raise LadderError(f"pieces with equal (label, size) {previous[:2]} carry opposite signs")
        previous = (rho.id, a, sign)
        dimension += rho.d * a
    if dimension % 2 != group.dimension_parity:
        raise LadderError(
            f"parameter dimension {dimension} has the wrong parity for {group.value}"
        )
    return dimension


@dataclass(frozen=True)
class TemperedPiece:
    """One summand of a tempered parameter: label, SL(2) size a, sign.

    The attached exponent is (a-1)/2 and must lie in the label's parity
    class; a = 0 is the formal convention piece, only possible for
    half-integral labels.
    """

    rho: CuspidalLabel
    a: int
    sign: int

    def __post_init__(self) -> None:
        _check_piece(self.rho, self.a, self.sign)

    @property
    def exponent(self) -> HalfInt:
        return HalfInt(self.a - 1)

    def sort_key(self) -> tuple:
        return (self.rho.id, self.a, -self.sign)


@dataclass(frozen=True)
class TemperedParam:
    """A good-parity tempered parameter: signed multiset of pieces.

    Pieces are kept in canonical sorted order.  Construction enforces the
    structural conditions: equal (label, size) pieces carry equal signs, and
    the total dimension has the parity demanded by the group.  The global
    sign-product condition is *not* enforced here; :func:`check_module_key`
    checks it on a module's key.
    """

    group: GroupKind
    pieces: tuple[TemperedPiece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(sorted(self.pieces, key=TemperedPiece.sort_key)))
        _check_pieces(self.group, [(p.rho, p.a, p.sign) for p in self.pieces])

    @property
    def dimension(self) -> int:
        return sum(p.rho.d * p.a for p in self.pieces)

    @property
    def rank(self) -> int:
        return (self.dimension - self.group.dimension_parity) // 2

    def sort_key(self) -> tuple:
        return tuple(p.sort_key() for p in self.pieces)


class ZeroRep:
    """Absorbing sentinel for the zero representation."""

    _instance: "ZeroRep | None" = None

    def __new__(cls) -> "ZeroRep":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZeroRep"


ZERO_REP = ZeroRep()


def is_zero(value: object) -> bool:
    return isinstance(value, ZeroRep)


def piece_keys(
    rid: str, pieces: Sequence[tuple[int, int]]
) -> tuple[tuple[str, int, int], ...] | None:
    """The keys ``(label id, a, -sign)`` of pieces ``(a, sign)``, unsorted.

    None when a size-0 piece of sign -1 leaves the summand out; size-0
    pieces of sign +1 are dropped.
    """
    if any(a < 0 for a, _ in pieces):
        raise AssertionError("negative piece size escaped the membership constraints")
    if (0, -1) in pieces:
        return None
    return tuple((rid, a, -sign) for a, sign in pieces if a)


def middle_keys(
    xs: Sequence[int], rid: str, eta: int, zone: Iterable[int]
) -> tuple[tuple[str, int, int], ...] | None:
    """The piece keys of the middle zone, the 1-based indices into the
    doubled exponents ``xs``: sizes ``x + 1``, signs alternating from ``eta``."""
    pieces = [(xs[i - 1] + 1, eta if k % 2 == 0 else -eta) for k, i in enumerate(zone)]
    return piece_keys(rid, pieces)


# ---------------------------------------------------------------------------
# standard modules


@dataclass(frozen=True)
class StandardModule:
    """Canonical Langlands-data symbol: sorted segments against a tempered part.

    Values are built from a key that passed :func:`check_module_key` by
    :func:`terms_of_keys`, after :func:`factor_key` and :func:`piece_keys`
    applied the degeneracy conventions, so dataclass equality is equality
    of canonical keys.
    """

    segments: tuple[Segment, ...]
    tempered: TemperedParam

    @property
    def group(self) -> GroupKind:
        return self.tempered.group

    @property
    def rank(self) -> int:
        return sum(s.rho.d * s.length for s in self.segments) + self.tempered.rank

    def sort_key(self) -> tuple:
        return (tuple(s.sort_key() for s in self.segments), self.tempered.sort_key())


# The key of a standard module, :meth:`StandardModule.sort_key` in doubled
# integers: its segments ``(x + y, x, label id, y)`` and its pieces
# ``(label id, a, -sign)``, each sorted.
ModuleKey = tuple[tuple[tuple[int, int, str, int], ...], tuple[tuple[str, int, int], ...]]


def check_module_key(
    group: GroupKind, labels: Mapping[str, CuspidalLabel], key: ModuleKey, rank: int | None = None
) -> int:
    """Run every assembly check on the key of a normalized module; return its rank.

    The key names proper segments and pieces of positive size, its labels
    looked up by id in ``labels``.  The clauses, in the order construction
    meets them: each piece is well formed, equal (label, size) pieces carry
    equal signs, the dimension has the group's parity, the segments match
    their labels' parity, every segment has x + y < 0, the sign product is
    +1, and, when ``rank`` is given, the module has that rank.
    """
    seg_keys, tempered_keys = key
    pieces = [(labels[rid], a, -neg) for rid, a, neg in tempered_keys]
    for piece in pieces:
        _check_piece(*piece)
    n = (_check_pieces(group, pieces) - group.dimension_parity) // 2
    for _, x, rid, y in seg_keys:
        _check_segment(labels[rid], x, y)
    for total, x, rid, y in seg_keys:
        if total >= 0:
            raise NotStandardModuleError(
                f"segment [{HalfInt(x)},{HalfInt(y)}] has non-negative exponent sum"
            )
        n += labels[rid].d * ((x - y) // 2 + 1)
    if sum(1 for _, a, sign in pieces if a >= 1 and sign < 0) % 2:
        raise NotStandardModuleError("tempered part violates the sign-product condition")
    if rank is not None:
        _check_rank(n, rank)
    return n


def _check_rank(term_rank: int, rank: int) -> None:
    if term_rank != rank:
        raise RankMismatchError(f"term of rank {term_rank} in an element of rank {rank}")


def terms_of_keys(
    group: GroupKind, labels: Mapping[str, CuspidalLabel], items: Iterable[tuple[ModuleKey, int]]
) -> tuple[tuple[StandardModule, int], ...]:
    """Each key's module, built directly since the key passed
    :func:`check_module_key`, with its coefficient.

    Equal segment keys share one segment (:class:`Segments`), and equal
    piece keys one tempered parameter.
    """
    segments = Segments(labels)
    tempered: dict[tuple[tuple[str, int, int], ...], TemperedParam] = {}
    terms = []
    for (seg_keys, tempered_keys), c in items:
        if tempered_keys not in tempered:
            tempered[tempered_keys] = TemperedParam(
                group, tuple(TemperedPiece(labels[rid], a, -neg) for rid, a, neg in tempered_keys)
            )
        terms.append(
            (StandardModule(tuple(segments[k] for k in seg_keys), tempered[tempered_keys]), c)
        )
    return tuple(terms)


# ---------------------------------------------------------------------------
# integer combinations of standard modules


K = TypeVar("K", bound=Hashable)


def sum_coefficients(items: Iterable[tuple[K, int]]) -> dict[K, int]:
    """Sum the integer coefficients of equal keys, in first-seen key order.

    Keys whose coefficients cancel stay in the result with coefficient 0, so
    a caller can still check every key it was given.
    """
    acc: dict[K, int] = {}
    for key, coeff in items:
        acc[key] = acc.get(key, 0) + coeff
    return acc


@dataclass(frozen=True)
class GrothendieckElement:
    """Formal integer combination of standard modules of one fixed rank.

    Terms are stored sorted by canonical key with zero coefficients pruned.
    """

    rank: int
    terms: tuple[tuple[StandardModule, int], ...]

    @staticmethod
    def from_items(
        rank: int, items: Iterable[tuple[StandardModule, int]]
    ) -> "GrothendieckElement":
        acc = sum_coefficients(items)
        for module in acc:
            _check_rank(module.rank, rank)
        terms = tuple(
            sorted(((m, c) for m, c in acc.items() if c != 0), key=lambda mc: mc[0].sort_key())
        )
        return GrothendieckElement(rank, terms)

    def coefficient(self, module: StandardModule) -> int:
        for m, c in self.terms:
            if m == module:
                return c
        return 0

    def modules(self) -> list[StandardModule]:
        return [m for m, _ in self.terms]

    def __len__(self) -> int:
        return len(self.terms)

