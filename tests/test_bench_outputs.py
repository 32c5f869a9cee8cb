"""The det-classical benchmark jobs print the outputs recorded for them.

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
JOBS = [
    (f"det-classical/{size}/{job.name}", job)
    for size, jobs in _load_jobs()["det-classical"].items()
    for job in jobs
]


@pytest.mark.parametrize("name, job", JOBS, ids=[name for name, _ in JOBS])
def test_det_classical_output_matches_recorded_digest(capsys, name, job):
    code = main(job.argv())
    captured = capsys.readouterr()
    assert code == 0, captured.err
    out = captured.out.encode("utf-8")
    assert len(out) == REFERENCE[name]["bytes"]
    assert hashlib.sha256(out).hexdigest() == REFERENCE[name]["sha256"]
