"""The fixed command-line jobs of the ``det-classical`` and ``long-expand``
workloads, at full size and at the small size the smoke test runs.

A job is one ``ladderrep`` subcommand on one inline JSON input; every job
runs in a fresh interpreter, as a user would run it.
"""

from __future__ import annotations

import json
from typing import NamedTuple


class Job(NamedTuple):
    name: str
    command: str  # ladderrep subcommand
    input: str  # inline JSON argument

    def argv(self) -> list[str]:
        return [self.command, self.input]


def _text(data: dict) -> str:
    return json.dumps(data, separators=(",", ":"))


def _ladder(group: str, xs, l: int, eta: int) -> str:
    return _text({"group": group, "X": [str(x) for x in xs], "l": l, "eta": eta})


def _two_blocks(a_xs, a_l: int, b_xs, b_l: int) -> str:
    """Block a (d=1, integral) and block b (d=2, half-integral), both eta=+1, Sp."""
    return _text(
        {
            "group": "Sp",
            "blocks": [
                {"rho": {"id": "a", "d": 1, "parity": "integral"}, "X": a_xs, "l": a_l, "eta": 1},
                {"rho": {"id": "b", "d": 2, "parity": "half-integral"}, "X": b_xs, "l": b_l, "eta": 1},
            ],
        }
    )


def _band(t: int) -> str:
    """The general-linear band ladder [i, i-2], i = 0..t-1."""
    return _text({"segments": [[str(i), str(i - 2)] for i in range(t)]})


def _ints(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def _halves(n: int) -> list[str]:
    return [f"{2 * i + 1}/2" for i in range(n)]


JOBS: dict[str, dict[str, list[Job]]] = {
    "det-classical": {
        "full": [
            Job("so-t10-l3", "det-formula", _ladder("SOodd", range(10), 3, 1)),
            Job("sp-t9-l3", "det-formula", _ladder("Sp", range(9), 3, -1)),
            Job("sp-two-blocks", "det-formula", _two_blocks(_ints(7), 2, _halves(5), 1)),
        ],
        "smoke": [
            Job("so-t6-l1", "det-formula", _ladder("SOodd", range(6), 1, 1)),
            Job("sp-t5-l1", "det-formula", _ladder("Sp", range(5), 1, -1)),
            Job("sp-two-blocks", "det-formula", _two_blocks(_ints(3), 1, _halves(3), 1)),
        ],
    },
    "long-expand": {
        "full": [
            Job("gl-band-t9", "gl-det-formula", _band(9)),
            Job("jacquet-0-250", "jacquet", _ladder("SOodd", (0, 250), 1, -1)),
            Job("jacquet-t10-l3", "jacquet", _ladder("SOodd", range(10), 3, 1)),
        ],
        "smoke": [
            Job("gl-band-t5", "gl-det-formula", _band(5)),
            Job("jacquet-0-20", "jacquet", _ladder("SOodd", (0, 20), 1, -1)),
            Job("jacquet-t6-l1", "jacquet", _ladder("SOodd", range(6), 1, 1)),
        ],
    },
}
