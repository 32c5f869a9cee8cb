"""Benchmark of the ladderrep engine.

    python3 bench/run.py --workload det-classical --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``det-classical``: ``ladderrep det-formula`` on three fixed classical data;
* ``long-expand``: ``gl-det-formula`` on a band ladder and ``jacquet`` on two
  fixed data;
* ``sweep``: a seeded corpus of small random data, every library call on each
  datum, in one library process.

Load comes from this one process, which runs one child at a time (a closed
loop with one client).  Each command-line job is a fresh interpreter.  The
job list is repeated in passes until ``--seconds`` is used up, with at least
two passes, and alternate passes run under the two ``PYTHONHASHSEED`` values
in ``HASH_SEEDS``.  Every output is checked: its SHA-256 must equal the digest
recorded in ``reference.json`` (recorded for the ``sweep`` corpus of the
default and hold-out seeds only) and, on ``sweep``, the first pass's digest
of the same datum, whose invariants are also checked.  Every failed check,
nonzero exit or exception counts as a failed job.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the jobs
in process with a span around each call into the engine, in child processes
under both hash seeds, and prints the per-layer self times and work counts,
the work counts being required to repeat exactly.  The last line of standard
output is the result as one JSON object; a summary goes to standard error.

``--record`` rewrites ``reference.json`` from the current code.  ``--size
smoke`` runs every workload at its smallest size, for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from corpus import corpus
from jobs import JOBS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("det-classical", "long-expand", "sweep")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # kept out of tuning, for confirming a claimed gain
SWEEP_SIZE = {"full": 1000, "smoke": 30}
HASH_SEEDS = ("0", "4242")
SETUP_SPAWNS = 21
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

END_TO_END = {
    "setup_s": "s",  # fresh interpreter plus `import ladderrep.cli`, median of spawns
    "wall_s": "s",  # the whole job list: the sum of the job latencies
    "job_p50_ms": "ms",  # over jobs (a CLI process, or one datum of the sweep's timed loop)
    "job_p99_ms": "ms",  # nearest rank, so the slowest job when there are < 100
    "peak_rss_mb": "MB",  # largest child of a pass, from wait4, median over passes
}
# Every timing above is a median over the run's passes: a job's latency is
# its median over the passes, and the percentiles are taken over the jobs.

# The layers, and the end-to-end metrics each layer's metrics should move.
LAYERS = {
    "formula": "wall_s, peak_rss_mb on det-classical; job_p50_ms on sweep",
    "formula-gl": "wall_s on long-expand",
    "core": "wall_s, peak_rss_mb on det-classical",
    "support": "wall_s on det-classical",
    "graph": "wall_s, peak_rss_mb on long-expand; job_p50_ms, job_p99_ms on sweep",
    "datum": "job_p50_ms on sweep",
    "jsonio": "wall_s, peak_rss_mb on long-expand and det-classical",
    "cli": "setup_s on all workloads; wall_s, peak_rss_mb on long-expand",
    "render": "job_p50_ms on sweep",
    "trace": "none: the cost of tracing itself",
}

# metric: (unit, layer, source).  "self:" is a span's self time, "incl:" its
# inclusive time, "count:" a work count; the rest are measured by this file.
PER_LAYER = {
    "formula.enumerate_s": ("s", "formula", "self:formula.enumerate"),
    "formula.sigma_tuples": ("count", "formula", "count:formula.sigma_tuples"),
    "formula.assemble_s": ("s", "formula", "self:formula.assemble"),
    "formula.summands_built": ("count", "formula", "count:formula.summands_built"),
    "formula.summands_zero": ("count", "formula", "count:formula.summands_zero"),
    "formula.det_s": ("s", "formula", "incl:formula.det"),
    "formula.gl_s": ("s", "formula-gl", "self:formula.gl"),
    "formula.gl_perms": ("count-computed", "formula-gl", "count:formula.gl_perms"),
    "formula.gl_terms": ("count", "formula-gl", "count:formula.gl_terms"),
    "core.from_items_s": ("s", "core", "self:core.from_items"),
    "core.raw_items": ("count", "core", "count:core.raw_items"),
    "core.distinct_terms": ("count", "core", "count:core.distinct_terms"),
    "support.project_s": ("s", "support", "self:support.project"),
    "support.project_in": ("count", "support", "count:support.project_in"),
    "support.project_kept": ("count", "support", "count:support.project_kept"),
    "graph.jacquet_s": ("s", "graph", "self:graph.jacquet"),
    "graph.jacquet_tuples": ("count", "graph", "count:graph.jacquet_tuples"),
    "graph.jacquet_terms": ("count", "graph", "count:graph.jacquet_terms"),
    "graph.derivative_s": ("s", "graph", "self:graph.derivative"),
    "graph.derivative_calls": ("count", "graph", "count:graph.derivative_calls"),
    "graph.derivative_nonzero": ("count", "graph", "count:graph.derivative_nonzero"),
    "graph.supp_s": ("s", "graph", "self:graph.supp"),
    "graph.aubert_s": ("s", "graph", "self:graph.aubert"),
    "graph.build_s": ("s", "graph", "self:graph.build"),
    "datum.validate_s": ("s", "datum", "self:datum.validate"),
    "datum.validate_calls": ("count", "datum", "count:datum.validate_calls"),
    "datum.standard_module_s": ("s", "datum", "self:datum.standard_module"),
    "jsonio.decode_s": ("s", "jsonio", "self:jsonio.decode"),
    "jsonio.encode_s": ("s", "jsonio", "self:jsonio.encode"),
    "cli.emit_s": ("s", "cli", "self:cli.emit"),
    "cli.bytes_out": ("B", "cli", "count:cli.bytes_out"),
    "cli.import_s": ("s", "cli", "import"),
    "render.s": ("s", "render", "self:render"),
    "render.bytes_out": ("B", "render", "count:render.bytes_out"),
    "trace.untraced_s": ("s", "trace", "untraced"),
    "trace.overhead_s": ("s", "trace", "overhead"),
}


class Child(NamedTuple):
    code: int | None  # None when killed at the run's time limit
    out: bytes
    err: bytes
    wall: float
    rss_mb: float


class Run:
    """One benchmark run: its deadline, and the checks counted so far."""

    def __init__(self, limit_s: float = RUN_LIMIT_S) -> None:
        self.deadline = time.perf_counter() + limit_s
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        print(f"FAILED: {message}", file=sys.stderr)

    def python(self, args: list[str], hash_seed: str | None = None, stdin: bytes = b"") -> Child:
        """Run one Python child to completion and reap it with its resource usage."""
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONHASHSEED", "PYTHONPATH")}
        env["PYTHONPATH"] = str(SRC)
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = hash_seed
        start = time.perf_counter()
        pipe = subprocess.PIPE
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdin=pipe, stdout=pipe, stderr=pipe
        )
        done = killed = False
        try:
            out, err = _collect(proc, stdin, self.deadline)
            done = True
        except TimeoutError:
            out, err, killed = b"", b"killed at the run's time limit", True
        finally:
            if not done:  # os.kill, because Popen.kill would reap it and lose its usage
                os.kill(proc.pid, signal.SIGKILL)
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        return Child(None if killed else proc.returncode, out, err, wall, usage.ru_maxrss / 1024)

    def result_of(self, child: Child, what: str) -> dict | None:
        """The JSON line a bench child printed last, or None (counted as failed)."""
        if child.code == 0:
            try:
                return json.loads(child.out.splitlines()[-1])
            except (IndexError, ValueError):
                pass
        self.fail(f"{what}: exit {child.code}: {child.err.decode(errors='replace')[-2000:]}")
        return None


def _collect(proc: subprocess.Popen, stdin: bytes, deadline: float) -> tuple[bytes, bytes]:
    """Feed stdin and drain stdout and stderr together, up to the deadline."""
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        if stdin:
            sel.register(proc.stdin, selectors.EVENT_WRITE)
        else:
            proc.stdin.close()
        sent = 0
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError
            for key, _ in sel.select(left):
                f = key.fileobj
                if f is proc.stdin:
                    try:
                        sent += os.write(f.fileno(), stdin[sent : sent + 65536])
                    except BrokenPipeError:
                        sent = len(stdin)
                    if sent == len(stdin):
                        sel.unregister(f)
                        f.close()
                    continue
                data = os.read(f.fileno(), 1 << 20)
                if data:
                    chunks[f].append(data)
                else:
                    sel.unregister(f)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_reference() -> dict:
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)
    return {}


def sweep_input(seed: int, size: str) -> bytes:
    texts = [json.dumps(d, separators=(",", ":")) for d in corpus(seed, SWEEP_SIZE[size])]
    return ("\n".join(texts) + "\n").encode("utf-8")


def sweep_key(size: str, seed: int) -> str:
    return f"sweep/{size}/seed={seed}"


def combined(digests: list) -> str:
    return hashlib.sha256("".join(map(str, digests)).encode()).hexdigest()


def repeat(seconds: float, one_pass) -> None:
    """Call ``one_pass(k)`` for k = 0, 1, ... while the next pass is expected
    to end within ``seconds`` of the first one's start; at least twice, so
    that both hash seeds run."""
    start = time.perf_counter()
    took: list[float] = []
    while len(took) < 2 or time.perf_counter() - start + statistics.median(took) <= seconds:
        began = time.perf_counter()
        one_pass(len(took))
        took.append(time.perf_counter() - began)


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def measure_setup(run: Run) -> tuple[float, float]:
    """Medians of the wall time of a fresh interpreter importing the command
    line, and of the import's own time inside it."""
    code = "import time; t = time.perf_counter(); import ladderrep.cli; print(time.perf_counter() - t)"
    walls, imports = [], []
    for i in range(SETUP_SPAWNS + 1):
        child = run.python(["-c", code])
        if child.code != 0:
            run.fail(f"import ladderrep.cli: {child.err.decode(errors='replace')[-2000:]}")
        elif i:  # the first spawn also fills the bytecode cache
            walls.append(child.wall)
            imports.append(float(child.out))
    if not walls:
        return math.nan, math.nan
    return statistics.median(walls), statistics.median(imports)


def end_to_end_cli(run: Run, workload: str, size: str, seconds: float, reference: dict) -> dict:
    jobs = JOBS[workload][size]
    walls: list[list[float]] = [[] for _ in jobs]
    pass_rss: list[float] = []

    def one_pass(k: int) -> None:
        rss = []
        for job, job_walls in zip(jobs, walls):
            child = run.python(["-m", "ladderrep.cli", *job.argv()], HASH_SEEDS[k % 2])
            run.attempted += 1
            job_walls.append(child.wall)
            rss.append(child.rss_mb)
            expected = reference.get("jobs", {}).get(f"{workload}/{size}/{job.name}")
            digest = hashlib.sha256(child.out).hexdigest()
            if child.code != 0:
                run.fail(f"{job.name}: exit {child.code}: {child.err.decode(errors='replace')[-2000:]}")
            elif expected is None or digest != expected["sha256"]:
                run.fail(f"{job.name}: output digest {digest} is not the recorded one")
        pass_rss.append(max(rss))

    repeat(seconds, one_pass)
    latencies = [statistics.median(w) for w in walls]
    return {
        "wall_s": sum(latencies),
        "job_p50_ms": 1e3 * percentile(latencies, 0.50),
        "job_p99_ms": 1e3 * percentile(latencies, 0.99),
        "peak_rss_mb": statistics.median(pass_rss),
        "_jobs": len(latencies),
        "_passes": len(pass_rss),
    }


def end_to_end_sweep(run: Run, seed: int, size: str, seconds: float, reference: dict) -> dict:
    stdin = sweep_input(seed, size)
    count = SWEEP_SIZE[size]
    expected = reference.get("sweep", {}).get(sweep_key(size, seed))
    latencies: list[list[float]] = []  # per pass, per datum
    pass_rss: list[float] = []
    first: list = []

    def one_pass(k: int) -> None:
        child = run.python([str(BENCH / "sweep.py")], HASH_SEEDS[k % 2], stdin)
        run.attempted += count
        pass_rss.append(child.rss_mb)
        result = run.result_of(child, "sweep")
        if result is None:
            run.failed += count - 1
            return
        latencies.append(result["latencies_ms"])
        check_sweep(run, result, first or None, expected)
        first[:] = first or result["digests"]

    repeat(seconds, one_pass)
    per_datum = [statistics.median(v) for v in zip(*latencies)]
    return {
        "wall_s": sum(per_datum) / 1e3 if per_datum else math.nan,
        "job_p50_ms": percentile(per_datum, 0.50) if per_datum else math.nan,
        "job_p99_ms": percentile(per_datum, 0.99) if per_datum else math.nan,
        "peak_rss_mb": statistics.median(pass_rss),
        "_jobs": len(per_datum),
        "_passes": len(pass_rss),
    }


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def traced(run: Run, workload: str, seed: int, size: str, seconds: float, reference: dict) -> dict:
    if workload == "sweep":
        key = sweep_key(size, seed)
        script, stdin = [str(BENCH / "sweep.py"), "--trace"], sweep_input(seed, size)
        jobs_run = SWEEP_SIZE[size]
    else:
        key = f"{workload}/{size}"
        script, stdin = [str(BENCH / "replay.py"), workload, "--size", size], b""
        jobs_run = len(JOBS[workload][size])
    recorded_counts = reference.get("counts", {}).get(key)
    results: list[dict] = []

    def one_pass(k: int) -> None:
        args = [*script, "--traced-first"] if k % 2 else script
        child = run.python(args, HASH_SEEDS[k % 2], stdin)
        run.attempted += jobs_run + 1  # the jobs, and the check of the work counts
        result = run.result_of(child, f"traced {workload}")
        if result is None:
            run.failed += jobs_run
            return
        if workload == "sweep":
            first = results[0]["digests"] if results else None
            check_sweep(run, result, first, reference.get("sweep", {}).get(key))
        else:
            check_replay(run, workload, size, result, reference)
        if results and result["counts"] != results[0]["counts"]:
            run.fail(f"work counts differ between hash seeds {HASH_SEEDS}")
        elif recorded_counts is not None and result["counts"] != recorded_counts:
            run.fail("work counts are not the recorded ones")
        results.append(result)

    repeat(seconds, one_pass)
    metrics = {name: math.nan for name in PER_LAYER}
    if results:
        untraced = statistics.median(r["untraced_s"] for r in results)
        for name, (_unit, _layer, source) in PER_LAYER.items():
            kind, _, key = source.partition(":")
            if kind == "self":
                metrics[name] = statistics.median(r["self_s"].get(key, 0.0) for r in results)
            elif kind == "incl":
                metrics[name] = statistics.median(r["inclusive_s"].get(key, 0.0) for r in results)
            elif kind == "count":
                metrics[name] = results[0]["counts"].get(key, 0)
        metrics["trace.untraced_s"] = untraced
        metrics["trace.overhead_s"] = statistics.median(r["traced_s"] for r in results) - untraced
    metrics["cli.import_s"] = measure_setup(run)[1]
    metrics["_passes"] = len(results)
    return metrics


def check_replay(run: Run, workload: str, size: str, result: dict, reference: dict) -> None:
    """Each replayed job's bytes must hash to the command line's recorded digest."""
    for job in JOBS[workload][size]:
        got = result["jobs"].get(job.name, {"error": "not replayed"})
        expected = reference.get("jobs", {}).get(f"{workload}/{size}/{job.name}")
        if "error" in got:
            run.fail(f"replay of {job.name}: {got['error']}")
        elif got != expected:
            run.fail(f"replay of {job.name} is not byte-identical to the command line")


def check_sweep(run: Run, result: dict, first: list | None, expected: str | None) -> None:
    """Count the failed data of one sweep child: an exception, a broken
    invariant, or a digest other than the first pass's; every datum when the
    outputs are not the recorded ones."""
    failed = {f["index"]: f["error"] for f in result["failures"]}
    for i, (a, b) in enumerate(zip(first or [], result["digests"])):
        if a != b:
            failed.setdefault(i, f"output differs between hash seeds {HASH_SEEDS}")
    for i, error in sorted(failed.items())[:10]:
        print(f"FAILED: datum {i}: {error}", file=sys.stderr)
    if expected is not None and combined(result["digests"]) != expected:
        run.fail("sweep outputs are not the recorded ones", len(result["digests"]))
    elif failed:
        run.fail(f"{len(failed)} data of the sweep", len(failed))


# ---------------------------------------------------------------------------
# recording the reference outputs


def record(run: Run) -> dict:
    """Digests and work counts of the current code, each run under both hash seeds.

    Any disagreement or failure is counted in ``run``; the caller writes
    nothing then.
    """
    ref: dict = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": {"default": DEFAULT_SEED, "holdout": HOLDOUT_SEED},
        "jobs": {},
        "counts": {},
        "sweep": {},
    }
    for size in ("full", "smoke"):
        for workload in ("det-classical", "long-expand"):
            for job in JOBS[workload][size]:
                digests = set()
                for h in HASH_SEEDS:
                    child = run.python(["-m", "ladderrep.cli", *job.argv()], h)
                    if child.code != 0:
                        run.fail(f"{job.name}: exit {child.code}: {child.err.decode(errors='replace')[-2000:]}")
                    digests.add((hashlib.sha256(child.out).hexdigest(), len(child.out)))
                if len(digests) != 1:
                    run.fail(f"{job.name}: output depends on the hash seed")
                sha256, size_bytes = digests.pop()
                ref["jobs"][f"{workload}/{size}/{job.name}"] = {"sha256": sha256, "bytes": size_bytes}
            script = [str(BENCH / "replay.py"), workload, "--size", size]
            results = [run.result_of(run.python(script, h), f"replay {workload}") for h in HASH_SEEDS]
            for result in filter(None, results):
                check_replay(run, workload, size, result, ref)
            ref["counts"][f"{workload}/{size}"] = _agreed(run, results, "counts")
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            stdin = sweep_input(seed, size)
            script = [str(BENCH / "sweep.py"), "--trace"]
            results = [run.result_of(run.python(script, h, stdin), "sweep") for h in HASH_SEEDS]
            for result in filter(None, results):
                check_sweep(run, result, None, None)
            ref["sweep"][sweep_key(size, seed)] = combined(_agreed(run, results, "digests"))
            ref["counts"][sweep_key(size, seed)] = _agreed(run, results, "counts")
    return ref


def _agreed(run: Run, results: list, field: str):
    """``field`` of the results under the hash seeds, which must all agree."""
    values = [r[field] for r in results if r is not None]
    if len(values) != len(results) or any(v != values[0] for v in values):
        run.fail(f"{field} depend on the hash seed")
        return None
    return values[0]


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep corpus seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    if not (SRC / "ladderrep" / "cli.py").is_file():
        print(f"error: the engine's source is missing (no {SRC / 'ladderrep'})", file=sys.stderr)
        return 2
    if args.record:
        run = Run(limit_s=3600.0)
        reference = record(run)
        if run.failed:
            print(f"error: {run.failed} failures, {REFERENCE} left as it was", file=sys.stderr)
            return 1
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {REFERENCE}", file=sys.stderr)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = Run()
    reference = load_reference()
    if not reference:
        run.fail(f"no recorded outputs in {REFERENCE}")
    if args.trace:
        measured = traced(run, args.workload, args.seed, args.size, args.seconds, reference)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    else:
        setup, _ = measure_setup(run)
        if args.workload == "sweep":
            measured = end_to_end_sweep(run, args.seed, args.size, args.seconds, reference)
        else:
            measured = end_to_end_cli(run, args.workload, args.size, args.seconds, reference)
        measured["setup_s"] = setup
        units = END_TO_END
    for name in units:
        if math.isnan(measured[name]):
            run.fail(f"{name} could not be measured")
            measured[name] = 0.0
    print(
        f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
        f"{measured['_passes']} passes, {measured.get('_jobs', 'no')} job latencies, "
        f"error rate {run.failed}/{run.attempted}, hash seeds {', '.join(HASH_SEEDS)}, "
        f"python {platform.python_version()}, nproc {os.cpu_count()}",
        file=sys.stderr,
    )
    if args.trace:
        for layer, moves in LAYERS.items():
            values = [f"{n} {measured[n]:.6g}" for n, (_, owner, _) in PER_LAYER.items() if owner == layer]
            print(f"  {layer}: {', '.join(values)}; moves {moves}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
