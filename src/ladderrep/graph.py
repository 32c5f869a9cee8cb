"""The colored ladder graph of a datum block and everything it computes.

Each block unfolds into a grid of vertices: one row per exponent, the row
for the pair (x_j, x_{t-j+1}) running from x_j on the right down to
-x_{t-j+1} on the left.  Arrows run leftward within a row and down-right
between consecutive rows, and a central band of rows carries alternating
+/- colors; everything outside the band is uncolored.  The supercuspidal
core is the colored part.  The support (the uncolored abscissas and the
core, by :class:`~ladderrep.support.Supports`) and duality (the reflection
of the grid through x+y <-> y) are read off the exponents, so only the
renderings and the round trip build graphs.  The Jacquet expansion walks
the admissible exponent drops, its segments keyed as in module keys, and
a derivative is the rest of a single-step drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

from .core import CuspidalLabel, HalfInt, LadderError, Parity, Segment, Segments
from .datum import DatumBlock, LadderDatum, canonical_form, check_block, check_total
from .datum import standard_key, validate_datum
from .support import SupportMultiset, Supports

Vertex = tuple[HalfInt, int]  # (abscissa, height)


class GraphParseError(LadderError):
    """A colored vertex set that is not the graph of any block."""


@dataclass(frozen=True)
class GraphRow:
    """Row at canonical index i (height -i), spanning right down to left.

    The row is empty when right < left, which happens exactly for the formal
    central row of a block whose middle contains the exponent -1/2.
    """

    index: int
    right: HalfInt
    left: HalfInt

    @property
    def height(self) -> int:
        return -self.index

    @property
    def is_empty(self) -> bool:
        return self.right < self.left

    def abscissas(self) -> Iterator[HalfInt]:
        return (HalfInt(v) for v in range(self.right.twice, self.left.twice - 1, -2))


@dataclass(frozen=True)
class LadderGraph:
    rho: CuspidalLabel
    t: int
    l: int
    eta: int
    rows: tuple[GraphRow, ...]

    def vertices(self) -> Iterator[Vertex]:
        for row in self.rows:
            for a in row.abscissas():
                yield (a, row.height)

    def has_vertex(self, a: HalfInt, h: int) -> bool:
        pos = self.l - h  # build_graph lays the rows out from height l downward
        if not 0 <= pos < len(self.rows):
            return False
        row = self.rows[pos]
        return not (a < row.left or row.right < a)

    def color(self, a: HalfInt, h: int) -> int:
        """The coloring value in {-1, 0, +1} at an existing vertex."""
        i = -h
        band = self.t - 2 * self.l - 1
        if not 0 <= i <= band:
            return 0
        if self.rho.parity is Parity.INTEGRAL:
            j = a.twice // 2
            if not i - band <= j <= i:
                return 0
        else:
            j = (a.twice + self.eta) // 2
            if not i - band + self.eta <= j <= i:
                return 0
        return (-1) ** (j % 2) * self.eta

    def colored_map(self) -> dict[Vertex, int]:
        return {(a, h): self.color(a, h) for a, h in self.vertices()}

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """All precedence pairs u -> v, horizontal then diagonal."""
        out: list[tuple[Vertex, Vertex]] = []
        for a, h in self.vertices():
            if self.has_vertex(a - 1, h):
                out.append(((a, h), (a - 1, h)))
            if self.has_vertex(a + 1, h - 1):
                out.append(((a, h), (a + 1, h - 1)))
        return out


def build_graph(block: DatumBlock) -> LadderGraph:
    """Unfold a validated block into its colored graph."""
    t, l = block.t, block.l
    rows = tuple(
        GraphRow(i, block.x(l + 1 + i), -block.x(t - l - i)) for i in range(-l, t - l)
    )
    return LadderGraph(block.rho, t, l, block.eta, rows)


def _group_rows(colored: Mapping[Vertex, int]) -> list[tuple[int, list[HalfInt]]]:
    by_height: dict[int, list[HalfInt]] = {}
    for (a, h), _ in colored.items():
        by_height.setdefault(h, []).append(a)
    rows = []
    for h in sorted(by_height, reverse=True):
        xs = sorted(by_height[h], key=lambda v: v.twice)
        for lo, hi_ in zip(xs, xs[1:]):
            if hi_.twice - lo.twice != 2:
                raise GraphParseError(f"row at height {h} is not a contiguous interval")
        rows.append((h, xs))
    return rows


def parse_colored_vertices(
    rho: CuspidalLabel, colored: Mapping[Vertex, int]
) -> DatumBlock:
    """Reconstruct the (X, l, eta) block from a colored vertex set.

    Heights matter only through the top-to-bottom order of the rows, so any
    translate (and any gap left by removing a whole row) parses identically;
    the result is therefore always in canonical form.
    """
    if not colored:
        return DatumBlock(rho, (), 0, 1)
    for (a, _h) in colored:
        if not rho.parity.matches(a):
            raise GraphParseError(f"abscissa {a} outside the parity class of {rho.id!r}")
    rows = _group_rows(colored)
    t = len(rows)
    colored_rows = [
        pos
        for pos, (h, xs) in enumerate(rows)
        if any(colored[(a, h)] != 0 for a in xs)
    ]
    integral = rho.parity is Parity.INTEGRAL

    if not colored_rows:
        if t % 2 == 0:
            l, eta = t // 2, -1
        else:
            if integral:
                raise GraphParseError("odd colorless graph is impossible for an integral label")
            l, eta = (t - 1) // 2, 1
    else:
        c = len(colored_rows)
        if colored_rows != list(range(colored_rows[0], colored_rows[0] + c)):
            raise GraphParseError("colored rows are not contiguous")
        if (t - c) % 2 != 0:
            raise GraphParseError("colored band size does not fit any pairing count")
        l = (t - c) // 2
        if colored_rows[0] != l:
            raise GraphParseError("colored band is not centered")
        top_h, top_xs = rows[l]
        top_colored = [a for a in top_xs if colored[(a, top_h)] != 0]
        a_max = top_colored[-1]
        if integral:
            if a_max.twice != 0:
                raise GraphParseError("band corner is misplaced for an integral label")
            eta = colored[(a_max, top_h)]
        else:
            eta = -a_max.twice
            if eta not in (1, -1):
                raise GraphParseError("band corner is misplaced for a half-integral label")

    exponents = tuple(xs[-1] for _h, xs in rows)
    for lo, hi_ in zip(exponents, exponents[1:]):
        if not lo < hi_:
            raise GraphParseError("row right endpoints do not strictly increase")
    block = DatumBlock(rho, exponents, l, eta)

    expected = build_graph(block)
    expected_rows = [r for r in expected.rows if not r.is_empty]
    if len(expected_rows) != t:
        raise GraphParseError("vertex set does not match the reconstructed block")
    for (h, xs), row in zip(rows, expected_rows):
        if xs[0] != row.left or xs[-1] != row.right:
            raise GraphParseError(
                f"row endpoints [{xs[0]}, {xs[-1]}] do not match the reconstructed block"
            )
        for a in xs:
            if colored[(a, h)] != expected.color(a, row.height):
                raise GraphParseError(f"coloring at abscissa {a} is inconsistent")
    return block


def graph_to_datum(g: LadderGraph) -> DatumBlock:
    """Inverse of :func:`build_graph` (up to canonical form on degenerate data)."""
    return parse_colored_vertices(g.rho, g.colored_map())


# ---------------------------------------------------------------------------
# derivatives and supports


def derivative(d: LadderDatum, rho_id: str, x: HalfInt) -> LadderDatum | None:
    """The leading Jacquet coefficient at the twist x of the given label.

    It is the rest of the drop that lowers the exponent x by one step and
    leaves every other exponent where it is.  The result is None (the zero
    representation) when that drop is not admissible, when x is not an
    exponent of the label, and when the label is absent from the datum.
    The datum is validated first in every case.
    """
    validate_datum(d)
    if not d.has_block(rho_id):
        return None
    block = d.block(rho_id)
    ys = [v.twice for v in block.exponents]
    if x.twice not in ys:
        return None
    ys[ys.index(x.twice)] -= 2
    floor = _drop_floor(block)
    if any(y < floor(ys, i) for i, y in enumerate(ys)):
        return None
    return Rests(d, rho_id).datum(_rest_key(ys, block.l, block.eta))


def supp_ladder(d: LadderDatum) -> SupportMultiset:
    """Cuspidal support: that of the datum's standard module, read off its
    key (:func:`standard_key`) without building it; ``d`` is validated first.

    On a valid datum the middle pieces alternate in sign by index, so only
    the hole rule of the reduction fires, and it cannot raise
    :class:`UnsupportedParameterError`.
    """
    validate_datum(d)
    return Supports({b.rho.id: b.rho for b in d.blocks}).of_key(d.group, standard_key(d))


def is_supercuspidal(d: LadderDatum) -> bool:
    return not supp_ladder(d).exponents


# ---------------------------------------------------------------------------
# full Jacquet expansion


@dataclass(frozen=True)
class JacquetTerm:
    """One summand: a GL ladder tensored against a smaller ladder datum.

    No two drops give equal terms, so ``multiplicity`` is always 1.
    """

    gl_segments: tuple[Segment, ...]
    datum: LadderDatum
    multiplicity: int

    @cached_property
    def gl_size(self) -> int:
        return sum(s.rho.d * s.length for s in self.gl_segments)


def _drop_floor(block: DatumBlock) -> Callable[[Sequence[int], int], int]:
    """The least admissible ``y_i`` of a drop, doubled, given ``y_0 .. y_{i-1}``.

    A drop lowers each x_i (0-based) by whole steps to y_i > y_{i-1}, with
    y_i >= -x_{t-1-i} - 1, a middle y_i on its staircase step (i - l, less
    eta/2 for a half-integral label) or above, and outer pair sums of at
    least -1.  The block's constants are read once, not once per call.
    """
    t, l = block.t, block.l
    shift = 0 if block.rho.parity is Parity.INTEGRAL else block.eta
    fixed = [-x.twice - 2 for x in reversed(block.exponents)]
    for i in range(l, t - l):
        fixed[i] = max(fixed[i], 2 * (i - l) - shift)

    def floor(ys: Sequence[int], i: int) -> int:
        lo = fixed[i]
        if i >= t - l:
            lo = max(lo, -2 - ys[t - 1 - i])
        if i:
            lo = max(lo, ys[i - 1] + 2)
        return lo

    return floor


def _rest_key(ys: Sequence[int], l: int, eta: int) -> tuple[tuple[int, ...], int, int]:
    """The rest block ``(kept, l, eta)`` of a drop y of a block with the given l
    and eta, doubled: the exponents with non-negative partner sum, one pair
    fewer per outer partner sum of -1, and eta +1 if empty, -1 if all paired."""
    kept = tuple([y for y, partner in zip(ys, reversed(ys)) if y + partner >= 0])
    new_l = l - [ys[i] + ys[-1 - i] for i in range(l)].count(-2)
    if not kept:
        return kept, new_l, 1
    if 2 * new_l == len(kept):
        return kept, new_l, -1
    return kept, new_l, eta


class Rests:
    """The rest data of drops of the block of ``rho_id`` in ``d``, checked and
    built from their keys ``(kept, l, eta)`` with the block's exponents
    doubled.

    ``d`` is validated here, its blocks checked once per datum object
    (:attr:`LadderDatum.block_checks`).  A rest datum is ``d`` with that
    block replaced by the rest block (left out when ``kept`` is empty), and
    :meth:`check` checks it as :func:`validate_datum` would, with only the
    rest block checked per key; since ``validate_datum`` checks blocks in
    label order and the other blocks pass, the first clause a bad key
    breaks is the one ``validate_datum`` names.  Blocks keep their label
    order, so no re-sort is needed.
    """

    def __init__(self, d: LadderDatum, rho_id: str) -> None:
        n = validate_datum(d)
        self.block = d.block(rho_id)
        pos = d.blocks.index(self.block)
        # the other blocks' fold: a valid datum has sign +1 and dimension 2n
        # plus the group's parity, and signs are +-1, so dividing is multiplying
        self.sign, dimension = d.block_checks[pos]
        self.dimension = 2 * n + d.group.dimension_parity - dimension
        self.group = d.group
        self.rho = self.block.rho
        self.head, self.tail = d.blocks[:pos], d.blocks[pos + 1 :]
        self.halves: dict[int, HalfInt] = {}

    def check(self, key: tuple) -> None:
        kept, l, eta = key
        if not kept:
            check_total(self.group, self.sign, self.dimension)
            return
        sign, dimension = check_block(self.rho, kept, l, eta)
        check_total(self.group, self.sign * sign, self.dimension + dimension)

    def build(self, key: tuple) -> LadderDatum:
        """The rest datum of a checked key."""
        kept, l, eta = key
        if not kept:
            return LadderDatum(self.group, self.head + self.tail)
        halves = self.halves
        for y in kept:
            if y not in halves:
                halves[y] = HalfInt(y)
        rest = DatumBlock(self.rho, tuple([halves[y] for y in kept]), l, eta)
        return LadderDatum(self.group, self.head + (rest,) + self.tail)

    def datum(self, key: tuple) -> LadderDatum:
        self.check(key)
        return self.build(key)


# One term of a Jacquet expansion on doubled ints: its GL size; its GL
# segments [x, y] in row order, as their keys (x + y, x, label id, y) of
# :func:`~ladderrep.core.factor_key`; and its rest block's key (kept, l, eta).
# The GL segments determine the drop, so rows sort as the terms do.
JacquetRow = tuple[int, tuple[tuple[int, int, str, int], ...], tuple[tuple[int, ...], int, int]]


def _jacquet_walk(block: DatumBlock) -> list[JacquetRow]:
    """The admissible drops of a block as rows, unsorted, walked level by
    level: level i holds the admissible choices of ``y_0 .. y_i``, each with
    the steps it drops, doubled."""
    l, eta, d, rid = block.l, block.eta, block.rho.d, block.rho.id
    xs = [x.twice for x in block.exponents]
    floor = _drop_floor(block)
    # each level is popped, so that a prefix is freed once extended
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for i, x in enumerate(xs):
        extended: list[tuple[tuple[int, ...], int]] = []
        while level:
            ys, dropped = level.pop()
            extended += [(ys + (y,), dropped + x - y) for y in range(floor(ys, i), x + 1, 2)]
        level = extended
    rows = []
    while level:
        ys, dropped = level.pop()
        rows.append(
            (
                d * dropped // 2,  # the GL size, d (sum x - sum y) / 2
                tuple([(x + y + 2, x, rid, y + 2) for x, y in zip(xs, ys) if y < x]),
                _rest_key(ys, l, eta),
            )
        )
    return rows


def jacquet_rows(d: LadderDatum, rho_id: str) -> tuple[Rests, list[JacquetRow]]:
    """The Jacquet summands along one label as sorted rows (:data:`JacquetRow`),
    with the rest data of their keys.

    Each admissible exponent drop y of the block gives one row, walked
    without merging: its GL ladder (the segments [x_i, y_i + 1], unit
    factors omitted) and the key of its rest datum, whose block keeps the
    exponents with non-negative partner sum.  ``d`` is validated, and each
    distinct rest key is checked (:meth:`Rests.check`), in walk order.
    """
    rests = Rests(d, rho_id)
    rows = _jacquet_walk(rests.block)
    for key in dict.fromkeys(row[2] for row in rows):
        rests.check(key)
    rows.sort()
    return rests, rows


def jacquet_expansion(d: LadderDatum, rho_id: str) -> list[JacquetTerm]:
    """All Jacquet summands supported on twists of one label, sorted by GL
    size, then canonically.

    The terms of :func:`jacquet_rows`, each distinct segment and rest
    datum built once.  No two drops give equal terms, so each multiplicity
    is 1: the per-drop terms are the merged ones, in the same order.
    """
    rests, rows = jacquet_rows(d, rho_id)
    segments = Segments({rho_id: rests.rho})
    data: dict[tuple, LadderDatum] = {}
    terms = []
    for _, keys, rest_key in rows:
        if rest_key not in data:
            data[rest_key] = rests.build(rest_key)
        terms.append(JacquetTerm(tuple([segments[key] for key in keys]), data[rest_key], 1))
    return terms


# ---------------------------------------------------------------------------
# duality


def aubert_dual(d: LadderDatum) -> LadderDatum:
    """The involution swapping horizontal and diagonal arrows, per block.

    The graph reflects through (x, y) -> (-x, x+y), shifted up by eta/2 for
    a half-integral label so that heights stay whole.  Row i (height -i)
    spans the abscissas [-x_{t-l-i}, x_{l+1+i}].  Each image row is an
    interval, and its right end, a dual exponent, is -a for the least row i
    reaching its height.  Duality fixes supercuspidal data, so the dual
    block's core is the block's core (the support's, read off the standard
    key's tempered part), of size c and sign eta_core (-1 if empty): with t'
    dual exponents, l' = (t' - c) // 2 and eta' = eta_core (-1)^(t' - c).
    The result is in canonical form, which makes supercuspidal data honest
    fixed points.
    """
    validate_datum(d)
    _, core = Supports({b.rho.id: b.rho for b in d.blocks}).tail(d.group, standard_key(d)[1])
    cores = {b.rho.id: b for b in core.blocks}
    blocks = []
    for b in d.blocks:
        xs, t, l = [x.twice for x in b.exponents], b.t, b.l
        shift = 0 if b.rho.parity is Parity.INTEGRAL else b.eta
        ends: dict[int, int] = {}  # per image height, the right end, doubled
        for i in range(-l, t - l):
            right, left = xs[l + i], -xs[t - l - i - 1]
            for h in range((left + shift) // 2 - i, (right + shift) // 2 - i + 1):
                ends.setdefault(h, shift - 2 * (h + i))
        core = cores.get(b.rho.id)
        c, eta = (core.t, core.eta) if core else (0, -1)
        rest = len(ends) - c
        exponents = tuple([HalfInt(ends[h]) for h in sorted(ends, reverse=True)])
        blocks.append(DatumBlock(b.rho, exponents, rest // 2, eta * (-1) ** rest))
    result = canonical_form(LadderDatum.of(d.group, blocks))
    validate_datum(result)
    return result
