"""JSON encoding/decoding for every value type.

Half-integers travel as fraction strings ("3/2", "-1", "0"), signs as the
integers +1/-1, labels as {"id", "d", "parity"} objects.  Schema violations
raise :class:`SchemaError`, which the command line reports as a parse
failure (exit 2), distinct from domain validation failures (exit 1).

The ``*_to_json`` builders return plain JSON values.  For the three large
outputs (expansions, general-linear combinations and Jacquet terms),
``write_module_rows``, ``write_gl_rows`` and ``write_jacquet_rows`` stream
the text ``json.dumps(<x>_to_json(...), indent=2, sort_keys=True)`` would
give, one term at a time, straight from the integer rows of the engine's
walks: they build no value at all.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterable, Mapping, TextIO

from .core import (
    CuspidalLabel,
    GroupKind,
    GrothendieckElement,
    HalfInt,
    ModuleKey,
    Parity,
    Segment,
    StandardModule,
    TemperedParam,
)
from .datum import DatumBlock, LadderDatum

if TYPE_CHECKING:
    from .formula import GLCombination, GLLadder, GLRow
    from .graph import JacquetRow, JacquetTerm, Rests
    from .support import SupportMultiset


class SchemaError(Exception):
    """Input JSON does not match the expected shape."""


def _require(data: Mapping[str, Any], key: str, context: str) -> Any:
    if not isinstance(data, Mapping) or key not in data:
        raise SchemaError(f"{context}: missing key {key!r}")
    return data[key]


def halfint_from_json(value: Any, context: str = "half-integer") -> HalfInt:
    if isinstance(value, bool):
        raise SchemaError(f"{context}: expected a number or fraction string")
    if isinstance(value, int):
        return HalfInt.whole(value)
    if isinstance(value, str):
        try:
            return HalfInt.parse(value)
        except ValueError as exc:
            raise SchemaError(f"{context}: bad fraction string {value!r}") from exc
    raise SchemaError(f"{context}: expected a number or fraction string")


def _require_object(data: Any, context: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SchemaError(f"{context}: expected a JSON object")
    return data


def _require_list(data: Mapping[str, Any], key: str, context: str) -> list:
    value = _require(data, key, context)
    if not isinstance(value, list):
        raise SchemaError(f"{context}: {key!r} must be a list")
    return value


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` and ``1.0`` do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sign_from_json(value: Any, context: str) -> int:
    if _is_int(value) and value in (1, -1):
        return value
    if value in ("+", "+1"):
        return 1
    if value in ("-", "-1"):
        return -1
    raise SchemaError(f"{context}: expected +1 or -1")


def group_to_json(group: GroupKind) -> str:
    return group.value


def group_from_json(value: Any) -> GroupKind:
    for kind in GroupKind:
        if value == kind.value:
            return kind
    raise SchemaError(f"unknown group kind {value!r}")


def label_to_json(rho: CuspidalLabel) -> dict:
    return {"id": rho.id, "d": rho.d, "parity": rho.parity.value}


def label_from_json(data: Any) -> CuspidalLabel:
    ident = _require(data, "id", "label")
    if not isinstance(ident, str):
        raise SchemaError("label: id must be a string")
    d = _require(data, "d", "label")
    parity_text = _require(data, "parity", "label")
    for parity in Parity:
        if parity_text == parity.value:
            if not _is_int(d) or d < 1:
                raise SchemaError("label: d must be a positive integer")
            return CuspidalLabel(ident, d, parity)
    raise SchemaError(f"label: unknown parity {parity_text!r}")


def segment_to_json(seg: Segment) -> dict:
    return {"rho": label_to_json(seg.rho), "x": str(seg.x), "y": str(seg.y)}


def tempered_to_json(t: TemperedParam) -> dict:
    return {
        "group": group_to_json(t.group),
        "pieces": [
            {"rho": label_to_json(p.rho), "a": p.a, "sign": p.sign} for p in t.pieces
        ],
    }


def module_to_json(m: StandardModule) -> dict:
    return {
        "segments": [segment_to_json(s) for s in m.segments],
        "tempered": tempered_to_json(m.tempered),
    }


def element_to_json(e: GrothendieckElement) -> dict:
    return {
        "rank": e.rank,
        "terms": [
            {"coefficient": c, "module": module_to_json(m)} for m, c in e.terms
        ],
    }


def block_to_json(b: DatumBlock) -> dict:
    return {
        "rho": label_to_json(b.rho),
        "X": [str(x) for x in b.exponents],
        "l": b.l,
        "eta": b.eta,
    }


def datum_to_json(d: LadderDatum) -> dict:
    return {
        "group": group_to_json(d.group),
        "blocks": [block_to_json(b) for b in d.blocks],
    }


def datum_from_json(data: Any) -> LadderDatum:
    """Accept the full schema, or the unipotent shorthand with a top-level X."""
    data = _require_object(data, "datum")
    group = group_from_json(_require(data, "group", "datum"))
    if "blocks" not in data and "X" in data:
        data = {"group": group.value, "blocks": [dict(data, rho=label_to_json(_shorthand_label(data)))]}
    blocks = []
    for entry in _require_list(data, "blocks", "datum"):
        rho = label_from_json(_require(entry, "rho", "block"))
        exps = tuple(
            halfint_from_json(v, "block exponent") for v in _require_list(entry, "X", "block")
        )
        l = _require(entry, "l", "block")
        if not _is_int(l):
            raise SchemaError("block: l must be an integer")
        eta = _sign_from_json(_require(entry, "eta", "block"), "block eta")
        blocks.append(DatumBlock(rho, exps, l, eta))
    return LadderDatum.of(group, blocks)


def _shorthand_label(data: Mapping[str, Any]) -> CuspidalLabel:
    exps = [halfint_from_json(v, "shorthand exponent") for v in _require_list(data, "X", "datum")]
    parity = Parity.INTEGRAL
    if exps and not exps[0].is_integer:
        parity = Parity.HALF_INTEGRAL
    return CuspidalLabel("1", 1, parity)


def support_to_json(s: SupportMultiset) -> dict:
    return {
        "exponents": {rho.id: [str(v) for v in values] for rho, values in s.exponents},
        "labels": {rho.id: label_to_json(rho) for rho, _ in s.exponents},
        "core": datum_to_json(s.core),
    }


def jacquet_term_to_json(term: JacquetTerm) -> dict:
    return {
        "gl": [segment_to_json(s) for s in term.gl_segments],
        "gl_size": term.gl_size,
        "datum": datum_to_json(term.datum),
        "multiplicity": term.multiplicity,
    }


def gl_ladder_from_json(data: Any) -> GLLadder:
    from .formula import GLLadder

    data = _require_object(data, "ladder")
    segments = []
    for entry in _require_list(data, "segments", "ladder"):
        if isinstance(entry, Mapping):
            x = halfint_from_json(_require(entry, "x", "ladder segment"), "ladder x")
            y = halfint_from_json(_require(entry, "y", "ladder segment"), "ladder y")
        elif isinstance(entry, list) and len(entry) == 2:
            x = halfint_from_json(entry[0], "ladder x")
            y = halfint_from_json(entry[1], "ladder y")
        else:
            raise SchemaError("ladder segment: expected a pair [x, y] or an object {x, y}")
        segments.append((x, y))
    if "rho" in data:
        rho = label_from_json(data["rho"])
    else:
        parity = Parity.INTEGRAL
        if segments and not segments[0][0].is_integer:
            parity = Parity.HALF_INTEGRAL
        rho = CuspidalLabel("1", 1, parity)
    return GLLadder(rho, tuple(segments))


def gl_combination_to_json(c: GLCombination) -> dict:
    return {
        "terms": [
            {"coefficient": coeff, "product": [segment_to_json(s) for s in product]}
            for product, coeff in c.terms
        ],
    }


# ---------------------------------------------------------------------------
# streaming writer for the large outputs


def _obj(level: int, fields: Iterable[tuple[str, str]]) -> str:
    """An object at indent ``level`` from (key, rendered value) pairs in sorted key order."""
    pad = "\n" + "  " * (level + 1)
    return "{" + ",".join(f'{pad}"{key}": {value}' for key, value in fields) + "\n" + "  " * level + "}"


def _array_parts(head: str, level: int, tail: str) -> tuple[str, str, str, str]:
    """The text of ``head``, an array at indent ``level`` and ``tail``, around
    the array's rendered items: before the first item, between items, after
    the last, and the whole for no item."""
    pad = "\n" + "  " * (level + 1)
    return head + "[" + pad, "," + pad, "\n" + "  " * level + "]" + tail, head + "[]" + tail


def _fill(parts: tuple[str, str, str, str], items: list[str]) -> str:
    """The text of :func:`_array_parts` with the rendered items filled in."""
    if not items:
        return parts[3]
    return parts[0] + parts[1].join(items) + parts[2]


def _write_top(out: TextIO, fields: str, terms: Iterable[str]) -> None:
    """Write the object ``{<fields>"terms": [...]}`` and a newline, one term at a time."""
    out.write("{\n  " + fields + '"terms": [')
    pad = "\n    "
    for text in terms:
        out.write(pad + text)
        pad = ",\n    "
    out.write("]\n}\n" if pad == "\n    " else "\n  ]\n}\n")


class _Writer:
    """Renders values at an indent level exactly as ``json.dumps(..., indent=2,
    sort_keys=True)`` renders their ``*_to_json`` form.

    Labels, segments, tempered pieces and exponents repeat across the terms of
    one output, so their text is cached per indent level under keys made of
    plain ints and strings (no dataclass is hashed).  Blocks and data rarely
    repeat, so they are rendered from cached templates with their values
    filled in.  One writer serves one call, so the caches go with it.
    """

    def __init__(self) -> None:
        self.labels: dict[tuple, str] = {}
        self.halves: dict[int, str] = {}
        self.segs: dict[tuple, str] = {}
        self.pieces: dict[tuple, str] = {}
        self.blocks: dict[tuple, tuple] = {}
        self.data: dict[tuple, tuple[str, str, str, str]] = {}

    def label(self, rho: CuspidalLabel, level: int) -> str:
        key = (rho.id, rho.d, rho.parity is Parity.INTEGRAL, level)
        text = self.labels.get(key)
        if text is None:
            text = self.labels[key] = _obj(
                level,
                (
                    ("d", str(rho.d)),
                    ("id", encode_basestring_ascii(rho.id)),
                    ("parity", encode_basestring_ascii(rho.parity.value)),
                ),
            )
        return text

    def half(self, twice: int) -> str:
        text = self.halves.get(twice)
        if text is None:
            text = self.halves[twice] = encode_basestring_ascii(str(HalfInt(twice)))
        return text

    def segment_of(self, rho: CuspidalLabel, x: int, y: int, level: int) -> str:
        """A segment ``[x, y]`` of ``rho``, exponents doubled."""
        key = (x, y, rho.id, rho.d, rho.parity is Parity.INTEGRAL, level)
        text = self.segs.get(key)
        if text is None:
            text = self.segs[key] = _obj(
                level, (("rho", self.label(rho, level + 1)), ("x", self.half(x)), ("y", self.half(y)))
            )
        return text

    def piece_of(self, rho: CuspidalLabel, a: int, sign: int, level: int) -> str:
        """A tempered piece of ``rho``, of size ``a`` and sign ``sign``."""
        key = (a, sign, rho.id, rho.d, rho.parity is Parity.INTEGRAL, level)
        text = self.pieces.get(key)
        if text is None:
            text = self.pieces[key] = _obj(
                level, (("a", str(a)), ("rho", self.label(rho, level + 1)), ("sign", str(sign)))
            )
        return text

    def block_of(self, rho: CuspidalLabel, xs: Iterable[int], l: int, eta: int, level: int) -> str:
        """``_obj`` on the fields X, eta, l and rho of a block with doubled
        exponents ``xs``, from a template cached per label and level, with
        the values filled in."""
        key = (rho.id, rho.d, rho.parity is Parity.INTEGRAL, level)
        template = self.blocks.get(key)
        if template is None:
            pad = "\n" + "  " * (level + 1)
            template = self.blocks[key] = (
                _array_parts("{" + pad + '"X": ', level + 1, "," + pad + '"eta": '),
                "," + pad + '"l": ',
                "," + pad + '"rho": ' + self.label(rho, level + 1) + "\n" + "  " * level + "}",
            )
        parts, middle, suffix = template
        return _fill(parts, [self.half(x) for x in xs]) + str(eta) + middle + str(l) + suffix

    def datum_of(self, group: GroupKind, blocks: list[str], level: int) -> str:
        """``_obj`` on the fields blocks and group, from a template cached per
        group and level, with the rendered blocks (at ``level + 2``) filled in."""
        key = (group is GroupKind.SP, level)
        template = self.data.get(key)
        if template is None:
            pad = "\n" + "  " * (level + 1)
            text = encode_basestring_ascii(group.value)
            template = self.data[key] = _array_parts(
                "{" + pad + '"blocks": ', level + 1, "," + pad + '"group": ' + text + "\n" + "  " * level + "}"
            )
        return _fill(template, blocks)


def write_module_rows(
    group: GroupKind,
    rank: int,
    labels: Mapping[str, CuspidalLabel],
    rows: Iterable[tuple[ModuleKey, int]],
    out: TextIO,
) -> None:
    """Write ``element_to_json`` of the element of rank ``rank`` whose terms
    are ``rows`` (:func:`~ladderrep.formula.expansion_rows`, labels by id in
    ``labels``) as the command line prints it, building no value: the text
    of each segment and piece is rendered once, and each term fills one
    template."""
    w = _Writer()
    segments, pieces = _array_parts("", 4, ""), _array_parts("", 5, "")
    template = (
        '{\n      "coefficient": %d,\n      "module": {\n        "segments": %s,\n'
        '        "tempered": {\n          "group": ' + encode_basestring_ascii(group.value)
        + ',\n          "pieces": %s\n        }\n      }\n    }'
    )

    def term(key: ModuleKey, c: int) -> str:
        items = [w.segment_of(labels[rid], x, y, 5) for _, x, rid, y in key[0]]
        tempered = [w.piece_of(labels[rid], a, -neg, 6) for rid, a, neg in key[1]]
        return template % (c, _fill(segments, items), _fill(pieces, tempered))

    _write_top(out, f'"rank": {rank},\n  ', (term(key, c) for key, c in rows))


def write_gl_rows(rho: CuspidalLabel, rows: Iterable[GLRow], out: TextIO) -> None:
    """Write ``gl_combination_to_json`` of the combination of ``rows`` (the
    products of :func:`~ladderrep.formula.gl_rows`, on the label ``rho``) as
    the command line prints it, building no value: the text of each segment
    is rendered once, and each term fills a template per coefficient."""
    w = _Writer()
    templates: dict[int, tuple[str, str, str, str]] = {}

    def term(product: tuple, c: int) -> str:
        if c not in templates:
            templates[c] = _array_parts(f'{{\n      "coefficient": {c},\n      "product": ', 3, "\n    }")
        return _fill(templates[c], [w.segment_of(rho, key[1], key[3], 4) for key in product])

    _write_top(out, "", (term(product, c) for product, c in rows))


def write_jacquet_rows(rests: Rests, rows: Iterable[JacquetRow], out: TextIO) -> None:
    """Write ``{"terms": [jacquet_term_to_json(t) ...]}`` for the terms of
    ``rows`` (:func:`~ladderrep.graph.jacquet_rows`) as the command line
    prints it, building no value: the text of each rest datum is rendered
    once per distinct key, and of each segment once per ``(x, y)``, from
    the writer's templates, and each term fills one template."""
    w = _Writer()
    rho, group = rests.rho, rests.group
    head, tail = (
        [w.block_of(b.rho, [x.twice for x in b.exponents], b.l, b.eta, 5) for b in blocks]
        for blocks in (rests.head, rests.tail)
    )
    data: dict[tuple, str] = {}
    gl = _array_parts("", 3, "")
    template = '{\n      "datum": %s,\n      "gl": %s,\n      "gl_size": %d,\n      "multiplicity": 1\n    }'

    def datum(key: tuple) -> str:
        kept, l, eta = key
        rest = [w.block_of(rho, kept, l, eta, 5)] if kept else []
        text = data[key] = w.datum_of(group, head + rest + tail, 3)
        return text

    def term(size: int, keys: tuple[tuple[int, int, str, int], ...], rest_key: tuple) -> str:
        items = [w.segment_of(rho, key[1], key[3], 4) for key in keys]
        return template % (data.get(rest_key) or datum(rest_key), _fill(gl, items), size)

    _write_top(out, "", (term(*row) for row in rows))
