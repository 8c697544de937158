"""Shared pieces of the benchmark: paths, workload sizes, metric units and
child-process handling.

Nothing here imports ``picard_ranges``: every measured repetition runs in
fresh interpreters started from here.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
REFERENCE = DATA / "reference.json"

WORKLOADS = ("scan_paper", "refute_upper", "cli_mix")

# Fixed work of one repetition per workload.  ``smoke`` is the tiny size
# used by smoke_check.py and by the floor pass of a traced run.
SCALES = {
    "full": {
        "scan_g": (1, 18),          # builtin/attainable/... for g = 1..18
        "nonadditivity_max_g": 10,
        "refute_g": (5, 11),        # builtin("upper")/gaps/... for g = 5..11
        "memberships_per_g": 20,
        "upper_witnesses_max_g": 10,
        "cli_counts": {"rho": 12, "membership": 8, "witness": 8, "range": 12,
                       "gaps": 5, "moduli": 4, "verify": 2, "max-by-length": 2},
        "cli_malformed": "all",
    },
    "smoke": {
        "scan_g": (1, 3),
        "nonadditivity_max_g": 3,
        "refute_g": (7, 7),
        "memberships_per_g": 2,
        "upper_witnesses_max_g": 7,
        "cli_counts": {"rho": 1, "membership": 1, "witness": 1, "range": 1,
                       "gaps": 1, "moduli": 1, "verify": 1, "max-by-length": 1},
        "cli_malformed": "defects",
    },
}

# Highest sizes any scale uses; make_reference.py covers them.
REF_SCAN_G = 18
REF_UPPER_G = 11
REF_CLI_G = 8
REF_WITNESS_G = (20, 60)

CHILD_TIMEOUT_S = 120

# Host-speed scaling.  On a shared host the same work runs at a speed that
# swings by up to 2.5x for seconds at a time, with no steal time reported
# and CPU time swinging with wall time, so raw times measure the neighbours.
# Every reported time is therefore scaled to a host at reference speed:
# measured time x (reference probe time / probe time measured next to it).
# In-process work is bracketed by probe_kernel runs inside the same process
# (worker.py), a fresh process by bare ``python -c pass`` starts.  The
# reference times are about the probes' medians on the machine where the
# benchmark was defined (2-vCPU x86_64 VM, CPython 3.11).
PROBE_REF_S = 0.00020
START_REF_S = 0.060
PROBE_EVERY_S = 0.02        # in-process work between two probes
PROBE_REPS = 3              # a probe is the fastest of this many kernel runs


def probe_kernel(n: int = 400) -> int:
    """Fixed pure-Python work of the DP's kind: integer arithmetic, small
    string joins and dict stores."""
    cells = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 512
        cells[key] = " * ".join((str(key), str(i)))
    return len(cells)


def probe_s() -> float:
    """The current time of one probe kernel run in this process."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float, ref: float) -> float:
    """``seconds`` at reference speed, given the probe times that bracket it."""
    return seconds * ref / ((before + after) / 2.0)


def ss_rho(s: int) -> int:
    """Picard number 2s^2 - s of the s-th power of the supersingular curve."""
    return 2 * s * s - s


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every child: the package from ``src`` of this
    checkout, and no fixtures override leaking in from the caller."""
    env = dict(os.environ)
    env.pop("PICARD_FIXTURES", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float
    timed_out: bool


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S,
              cwd: Path = ROOT) -> ChildResult:
    """Run one child to completion, draining both pipes, and return its
    exit code, output, wall time and peak resident memory (from wait4)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            deadline = t0 + timeout
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()   # interrupted: leave no child behind
        proc.wait()
        raise
    finally:
        for pipe in chunks:
            pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, b"".join(chunks[proc.stdout]),
                       b"".join(chunks[proc.stderr]), wall,
                       usage.ru_maxrss / 1024.0, timed_out)


def python_child(*args: str) -> list[str]:
    return [sys.executable, *args]
