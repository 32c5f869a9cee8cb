"""The benchmark's workloads print the outputs recorded for them.

Each det-classical and long-expand job of ``bench/jobs.py`` runs through
``cli.main`` in process, and the SHA-256 and byte count of its standard
output are compared with ``bench/reference.json``.  The sweep's smoke corpus
runs through ``bench/sweep.py``'s ``process`` and ``digest`` in process, and
its per-datum digests, combined as ``bench/run.py`` combines them, are
compared with the recorded ones.  The benchmark files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ladderrep.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # the benchmark's scripts import each other by name


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDED = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
REFERENCE = RECORDED["jobs"]
RUN = _load("run")
SWEEP = _load("sweep")


def _jobs(workload: str) -> list:
    return [
        (f"{workload}/{size}/{job.name}", job)
        for size, jobs in RUN.JOBS[workload].items()
        for job in jobs
    ]


def _assert_recorded_output(capsys, name, job) -> None:
    code = main(job.argv())
    captured = capsys.readouterr()
    assert code == 0, captured.err
    out = captured.out.encode("utf-8")
    assert len(out) == REFERENCE[name]["bytes"]
    assert hashlib.sha256(out).hexdigest() == REFERENCE[name]["sha256"]


JOBS = _jobs("det-classical")
LONG_JOBS = _jobs("long-expand")


@pytest.mark.parametrize("name, job", JOBS, ids=[name for name, _ in JOBS])
def test_det_classical_output_matches_recorded_digest(capsys, name, job):
    _assert_recorded_output(capsys, name, job)


@pytest.mark.parametrize("name, job", LONG_JOBS, ids=[name for name, _ in LONG_JOBS])
def test_long_expand_output_matches_recorded_digest(capsys, name, job):
    _assert_recorded_output(capsys, name, job)


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_smoke_outputs_match_recorded_digest(seed):
    digests = []
    for text in RUN.sweep_input(seed, "smoke").decode("utf-8").splitlines():
        out, results = SWEEP.process(SWEEP.NullTracer(), text, SWEEP.library_expand)
        assert SWEEP.check(results) == []
        digests.append(SWEEP.digest(out, results))
    assert len(digests) == RUN.SWEEP_SIZE["smoke"]
    assert RUN.combined(digests) == RECORDED["sweep"][RUN.sweep_key("smoke", seed)]
