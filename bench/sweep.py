"""The ``sweep`` workload's library process: many small calls on many data.

Reads one datum per line (JSON, the command line's input schema) from
standard input and runs the whole library on each: decode, validate, the
standard module, each block's graph with ASCII and DOT rendering, the
derivative at every abscissa, the support, the Jacquet expansion along each
label, the dual, and the projected expansion, rendered and encoded with the
command line's settings.  Outside the timed region, the datum's digest is
the SHA-256 of that output and of the text form of every other result.

Three invariants are checked on each datum outside the timed region: the
dual of the dual is the canonical datum, each graph parses back to its
block, and the expansion has coefficient +1 on the datum's standard module.

The first ``WARMUP`` data are run once untimed, so that the timed data find
the code warm.  The heap is then frozen, as none of it is the data's
garbage, and each datum is timed from a freshly collected heap, so that its
latency does not depend on the data before it.

Untraced (the default), it prints one JSON line with each datum's latency
(the timed region alone), digest and failure.  With ``--trace`` it runs the
data twice, untraced with the library's ``determinantal_formula`` and traced
with its replay, and prints the summed latencies of each side, per-layer
times and work counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
import traceback

from ladderrep import jsonio, render
from ladderrep.datum import canonical_form, standard_module_of, validate_datum
from ladderrep.formula import determinantal_formula
from ladderrep.graph import (
    aubert_dual,
    build_graph,
    derivative,
    graph_to_datum,
    jacquet_expansion,
    supp_ladder,
)

from replay import emit, expand
from spans import NullTracer, Tracer

WARMUP = 20


def library_expand(tr, d):
    return determinantal_formula(d)


def process(tr, text: str, det) -> tuple[bytes, dict]:
    """All library calls on one datum: its emitted expansion, and every result."""
    with tr.span("jsonio.decode"):
        d = jsonio.datum_from_json(json.loads(text))
    with tr.span("datum.validate"):
        rank = validate_datum(d)
    tr.count("datum.validate_calls")
    with tr.span("datum.standard_module"):
        module = standard_module_of(d)
    graphs, pictures, derivatives = [], [], []
    for b in d.blocks:
        with tr.span("graph.build"):
            g = build_graph(b)
        graphs.append(g)
        with tr.span("render"):
            pictures += [render.ascii_graph(g), render.dot_graph(g)]
        for x in sorted({a for a, _ in g.vertices()}):
            with tr.span("graph.derivative"):
                result = derivative(d, b.rho.id, x)
            tr.count("graph.derivative_calls")
            tr.count("graph.derivative_nonzero", result is not None)
            derivatives.append(result)
    with tr.span("graph.supp"):
        support = supp_ladder(d)
    jacquet = []
    for b in d.blocks:
        with tr.span("graph.jacquet"):
            terms = jacquet_expansion(d, b.rho.id)
        if tr.enabled:
            tr.count("graph.jacquet_tuples", sum(t.multiplicity for t in terms))
        tr.count("graph.jacquet_terms", len(terms))
        jacquet += terms
    with tr.span("graph.aubert"):
        dual = aubert_dual(d)
    element = det(tr, d)
    with tr.span("render"):
        pictures.append(render.render_element(element))
    if tr.enabled:
        tr.count("render.bytes_out", sum(len(p.encode("utf-8")) for p in pictures))
    with tr.span("jsonio.encode"):
        data = jsonio.element_to_json(element)
    results = {
        "datum": d, "rank": rank, "module": module, "graphs": graphs, "pictures": pictures,
        "derivatives": derivatives, "support": support, "jacquet": jacquet, "dual": dual,
        "element": element,
    }
    return emit(tr, data), results


def digest(out: bytes, r: dict) -> str:
    """SHA-256 of the emitted expansion and of every other result, in text form."""
    lines = [str(r["rank"]), render.render_module(r["module"]), *r["pictures"]]
    lines += ["0" if x is None else render.render_datum(x) for x in r["derivatives"]]
    lines.append(render.render_support(r["support"]))
    lines += [render.render_jacquet_term(t) for t in r["jacquet"]]
    lines.append(render.render_datum(r["dual"]))
    return hashlib.sha256(out + "\n".join(lines).encode("utf-8")).hexdigest()


def check(r: dict) -> list[str]:
    """The invariants that fail on this datum."""
    canonical = canonical_form(r["datum"])
    broken = []
    if aubert_dual(r["dual"]) != canonical:
        broken.append("aubert_dual twice is not the canonical datum")
    for g, b in zip(r["graphs"], canonical.blocks):
        if graph_to_datum(g) != b:
            broken.append(f"graph of block {b.rho.id!r} does not parse back to it")
    coefficient = r["element"].coefficient(r["module"])
    if coefficient != 1:
        broken.append(f"coefficient {coefficient} on the standard module")
    return broken


def run(tr, texts: list[str], det) -> dict:
    latencies, digests, failures = [], [], []
    for i, text in enumerate(texts):
        gc.collect()  # so that no datum pays for the garbage of the data before it
        start = time.perf_counter()
        try:
            out, results = process(tr, text, det)
            latencies.append((time.perf_counter() - start) * 1e3)
            digests.append(digest(out, results))
            broken = check(results)
        except Exception:  # one datum's failure must not hide the others'
            latencies.append((time.perf_counter() - start) * 1e3)
            digests.append(None)
            failures.append({"index": i, "error": traceback.format_exc(limit=3)})
            continue
        if broken:
            failures.append({"index": i, "error": "; ".join(broken)})
    return {"latencies_ms": latencies, "digests": digests, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--traced-first", action="store_true")
    args = parser.parse_args()
    texts = sys.stdin.read().splitlines()
    for text in texts[:WARMUP]:
        try:
            process(NullTracer(), text, library_expand)
        except Exception:  # the timed run records it
            pass
    gc.collect()
    gc.freeze()  # so that each datum's collection skips the modules and the input
    if not args.trace:
        print(json.dumps(run(NullTracer(), texts, library_expand)))
        return 0
    tracer = Tracer()
    sides = {}
    for side in ("traced", "untraced") if args.traced_first else ("untraced", "traced"):
        if side == "traced":
            sides[side] = run(tracer, texts, expand)
        else:
            sides[side] = run(NullTracer(), texts, library_expand)
    failures = sides["untraced"]["failures"] + sides["traced"]["failures"]
    for i, (a, b) in enumerate(zip(sides["untraced"]["digests"], sides["traced"]["digests"])):
        if a != b:
            failures.append({"index": i, "error": "traced and untraced outputs differ"})
    print(
        json.dumps(
            {
                "untraced_s": sum(sides["untraced"]["latencies_ms"]) / 1e3,
                "traced_s": sum(sides["traced"]["latencies_ms"]) / 1e3,
                "self_s": tracer.own,
                "inclusive_s": tracer.inclusive,
                "counts": dict(tracer.counts),
                "digests": sides["traced"]["digests"],
                "failures": failures,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
