"""Human-oriented text output: module notation, formula listings, grids, DOT.

Standard modules print in the classical notation: Steinberg factors as
Δ[x,y] (a single twist as |.|^x), induced with ⋊ against π(x1^+, x2^-, ...)
with exponents ascending, the empty tempered part as 1.  Graphs print as aligned
grids (o uncolored, +/- colored, . absent) or as DOT digraphs whose edge
direction follows the precedence order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import GrothendieckElement, Segment, StandardModule, TemperedParam
from .datum import DatumBlock, LadderDatum

if TYPE_CHECKING:
    from .formula import GLCombination, TableRow
    from .graph import JacquetTerm, LadderGraph
    from .support import SupportMultiset


def _label_prefix(rho_id: str, show: bool) -> str:
    return f"{rho_id}:" if show else ""


def render_segment(seg: Segment, show_label: bool = False) -> str:
    prefix = _label_prefix(seg.rho.id, show_label)
    if seg.x == seg.y:
        return f"{prefix}|.|^{seg.x}"
    return f"{prefix}Δ[{seg.x},{seg.y}]"


def render_tempered(t: TemperedParam, show_labels: bool = False) -> str:
    if not t.pieces:
        return "1"
    bits = []
    for p in t.pieces:
        sign = "+" if p.sign == 1 else "-"
        bits.append(f"{_label_prefix(p.rho.id, show_labels)}{p.exponent}^{sign}")
    return "π(" + ",".join(bits) + ")"


def _needs_labels(m: StandardModule) -> bool:
    ids = {s.rho.id for s in m.segments} | {p.rho.id for p in m.tempered.pieces}
    return len(ids) > 1


def render_module(m: StandardModule) -> str:
    show = _needs_labels(m)
    parts = [render_segment(s, show) for s in m.segments]
    tail = render_tempered(m.tempered, show)
    if not parts:
        return tail
    return "×".join(parts) + "⋊" + tail


def render_element(e: GrothendieckElement) -> str:
    if not e.terms:
        return "0"
    bits = []
    for m, c in e.terms:
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        bits.append(f"{sign} {coeff}[{render_module(m)}]")
    return " ".join(bits)


def render_block(b: DatumBlock) -> str:
    xs = ",".join(str(x) for x in b.exponents)
    return f"{b.rho.id}: (X={{{xs}}}, l={b.l}, eta={'+1' if b.eta == 1 else '-1'})"


def render_datum(d: LadderDatum) -> str:
    if not d.blocks:
        return f"{d.group.value}: (empty)"
    return f"{d.group.value}: " + "; ".join(render_block(b) for b in d.blocks)


def render_support(s: SupportMultiset) -> str:
    parts = []
    for rho, values in s.exponents:
        parts.append(f"{rho.id}:{{{','.join(str(v) for v in values)}}}")
    exps = " ".join(parts) if parts else "{}"
    return f"exponents {exps} | core {render_datum(s.core)}"


def render_jacquet_term(term: JacquetTerm) -> str:
    if term.gl_segments:
        show = len({s.rho.id for s in term.gl_segments}) > 1
        gl = "L(" + ",".join(render_segment(s, show) for s in term.gl_segments) + ")"
    else:
        gl = "1"
    mult = "" if term.multiplicity == 1 else f"{term.multiplicity}*"
    return f"{mult}{gl} ⊗ [{render_datum(term.datum)}]"


def render_table(rows: list[TableRow]) -> str:
    texts: dict[int, str] = {}  # by module identity: sigma_table shares one per distinct key
    lines = ["sigma | sign | summands"]
    for row in rows:
        sigma = " ".join("(" + ",".join(map(str, perm)) + ")" for perm in row.sigma.perms)
        sign = "+1" if row.sigma.sign == 1 else "-1"
        for m in row.summands:
            if id(m) not in texts:
                texts[id(m)] = render_module(m)
        body = " ⊕ ".join([texts[id(m)] for m in row.summands]) or "0"
        lines.append(f"{sigma} | {sign} | {body}")
    return "\n".join(lines)


def render_gl_combination(c: GLCombination) -> str:
    if not c.terms:
        return "0"
    bits = []
    for product, coeff in c.terms:
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        pref = "" if mag == 1 else f"{mag}*"
        body = "×".join(render_segment(s) for s in product) if product else "1"
        bits.append(f"{sign} {pref}[{body}]")
    return " ".join(bits)


# ---------------------------------------------------------------------------
# graph grids


def ascii_graph(g: LadderGraph) -> str:
    rows = [r for r in g.rows if not r.is_empty]
    if not rows:
        return "(empty graph)"
    left = min(r.left for r in rows)
    right = max(r.right for r in rows)
    columns = []
    v = left
    while not right < v:
        columns.append(v)
        v = v + 1
    width = max(len(str(c)) for c in columns) + 2
    header = "x:".ljust(6) + "".join(str(c).rjust(width) for c in columns)
    lines = [header]
    for row in g.rows:
        if row.is_empty:
            continue
        cells = []
        for c in columns:
            if c < row.left or row.right < c:
                cells.append(".")
            else:
                f = g.color(c, row.height)
                cells.append("o" if f == 0 else ("+" if f == 1 else "-"))
        lines.append(f"i={row.index}:".ljust(6) + "".join(s.rjust(width) for s in cells))
    return "\n".join(lines)


def _dot_name(a, h) -> str:
    return f"v_{str(a).replace('-', 'm').replace('/', '_')}_{str(h).replace('-', 'm')}"


def dot_graph(g: LadderGraph) -> str:
    name = g.rho.id.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{name}" {{']
    for a, h in sorted(g.vertices(), key=lambda v: (-v[1], -v[0].twice)):
        f = g.color(a, h)
        mark = "o" if f == 0 else ("+" if f == 1 else "-")
        fill = "white" if f == 0 else "gray80"
        lines.append(
            f'  {_dot_name(a, h)} [label="({a},{h}) {mark}", shape=circle, '
            f"style=filled, fillcolor={fill}];"
        )
    for (u, v) in sorted(
        g.edges(), key=lambda e: (-e[0][1], -e[0][0].twice, -e[1][1], -e[1][0].twice)
    ):
        lines.append(f"  {_dot_name(*u)} -> {_dot_name(*v)};")
    lines.append("}")
    return "\n".join(lines)
