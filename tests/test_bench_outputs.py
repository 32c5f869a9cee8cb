"""The det-classical and long-expand benchmark jobs print the outputs
recorded for them.

Each job of ``bench/jobs.py`` runs through ``cli.main`` in process, and the
SHA-256 and byte count of its standard output are compared with
``bench/reference.json``.  The benchmark files are only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ladderrep.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_jobs() -> dict:
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["jobs"]


def _jobs(workload: str) -> list:
    return [
        (f"{workload}/{size}/{job.name}", job)
        for size, jobs in _load_jobs()[workload].items()
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
