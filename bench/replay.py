"""In-process replay of the command-line jobs, for the traced runs.

Each job is replayed through the same public calls its subcommand handler
makes, with a span around each call, and its output bytes are produced the
way the command line emits them, so they can be compared with the recorded
digest of the command line's own output.

Run as a script, it replays every job of one workload twice, once traced
and once untraced (in the order given), and prints one JSON line: the wall
time of each side, per-layer self and inclusive times, the work counts and
each job's output digest.  The engine must be importable (``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback

from ladderrep import jsonio
from ladderrep.core import GrothendieckElement, is_zero
from ladderrep.datum import LadderDatum, validate_datum
from ladderrep.formula import assemble_i_sigma, enumerate_sigma, gl_determinantal_formula
from ladderrep.graph import jacquet_expansion, supp_ladder
from ladderrep.support import project_ps

from jobs import JOBS, Job
from spans import NullTracer, Tracer


def emit(tr, data) -> bytes:
    """The command line's JSON output for ``data``, as bytes."""
    with tr.span("cli.emit"):
        out = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")
    tr.count("cli.bytes_out", len(out))
    return out


def expand(tr, d: LadderDatum) -> GrothendieckElement:
    """``determinantal_formula(d)`` made through its public calls, one span each."""
    with tr.span("formula.det"):
        with tr.span("datum.validate"):
            rank = validate_datum(d)
        tr.count("datum.validate_calls")
        with tr.span("formula.enumerate"):
            sigmas = enumerate_sigma(d)
        tr.count("formula.sigma_tuples", len(sigmas))
        items = []
        built = 0
        with tr.span("formula.assemble"):
            for sigma in sigmas:
                summands = assemble_i_sigma(d, sigma)
                built += len(summands)
                items.extend((s, sigma.sign) for s in summands if not is_zero(s))
        tr.count("formula.summands_built", built)
        tr.count("formula.summands_zero", built - len(items))
        tr.count("core.raw_items", len(items))
        with tr.span("core.from_items"):
            element = GrothendieckElement.from_items(rank, items)
        tr.count("core.distinct_terms", len(element))
        with tr.span("graph.supp"):
            target = supp_ladder(d)
        with tr.span("support.project"):
            projected = project_ps(target, element)
        tr.count("support.project_in", len(element))
        tr.count("support.project_kept", len(projected))
    return projected


def _decode_datum(tr, text: str) -> LadderDatum:
    with tr.span("jsonio.decode"):
        return jsonio.datum_from_json(json.loads(text))


def _det_formula(tr, text: str) -> bytes:
    element = expand(tr, _decode_datum(tr, text))
    with tr.span("jsonio.encode"):
        data = jsonio.element_to_json(element)
    return emit(tr, data)


def _gl_det_formula(tr, text: str) -> bytes:
    with tr.span("jsonio.decode"):
        ladder = jsonio.gl_ladder_from_json(json.loads(text))
    with tr.span("formula.gl"):
        combination = gl_determinantal_formula(ladder)
    tr.count("formula.gl_perms", math.factorial(ladder.t))  # computed as t!, not counted
    tr.count("formula.gl_terms", len(combination))
    with tr.span("jsonio.encode"):
        data = jsonio.gl_combination_to_json(combination)
    return emit(tr, data)


def _jacquet(tr, text: str) -> bytes:
    d = _decode_datum(tr, text)
    (block,) = d.blocks  # the jobs have one label, so the handler needs no --rho
    with tr.span("graph.jacquet"):
        terms = jacquet_expansion(d, block.rho.id)
    if tr.enabled:  # merging turns equal tuples into multiplicities, which sum to the tuples
        tr.count("graph.jacquet_tuples", sum(t.multiplicity for t in terms))
    tr.count("graph.jacquet_terms", len(terms))
    with tr.span("jsonio.encode"):
        data = {"terms": [jsonio.jacquet_term_to_json(t) for t in terms]}
    return emit(tr, data)


HANDLERS = {"det-formula": _det_formula, "gl-det-formula": _gl_det_formula, "jacquet": _jacquet}


def replay(tr, job: Job) -> bytes:
    return HANDLERS[job.command](tr, job.input)


def _pass(tr, jobs: list[Job], results: dict) -> float:
    """Replay every job once; return the seconds spent inside the replays."""
    busy = 0.0
    for job in jobs:
        start = time.perf_counter()
        try:
            out = replay(tr, job)
        except Exception:  # reported per job; the parent counts it as failed
            busy += time.perf_counter() - start
            results[job.name] = {"error": traceback.format_exc(limit=3)}
            continue
        busy += time.perf_counter() - start
        digest = {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
        if results.setdefault(job.name, digest) != digest:
            results[job.name] = {"error": "traced and untraced replays differ"}
    return busy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(JOBS))
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--traced-first", action="store_true")
    args = parser.parse_args()
    jobs = JOBS[args.workload][args.size]
    tracer = Tracer()
    results: dict = {}
    walls = {}
    for side in ("traced", "untraced") if args.traced_first else ("untraced", "traced"):
        walls[side] = _pass(tracer if side == "traced" else NullTracer(), jobs, results)
    print(
        json.dumps(
            {
                "untraced_s": walls["untraced"],
                "traced_s": walls["traced"],
                "self_s": tracer.own,
                "inclusive_s": tracer.inclusive,
                "counts": dict(tracer.counts),
                "jobs": results,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
