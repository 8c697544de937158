#!/usr/bin/env python3
"""The benchmark's one command.

    python3 benchmarks/run.py [--workload scan_paper|refute_upper|cli_mix|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A run repeats the workload's fixed work,
each repetition in fresh processes, for about ``S`` seconds (at least
once), then measures set-up, and reports medians over the repetitions.
Every time is scaled to a host at reference speed (see common.py).  Every
answer is checked.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the same numbers for a reader, with the machine facts.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field

from common import (BENCH, REFERENCE, SCALES, SRC, START_REF_S, WORKLOADS, load_reference,
                    python_child, run_child, scaled, unit_of)

SETUP_REPS = 11
IMPORTTIME_REPS = 5
TAIL_BEYOND = 10        # query_tail_ms: the highest percentile with 10 samples beyond it
PACKAGE_MODULES = ("picard_ranges", "albert", "decomp", "catalog", "ranges",
                   "asymptotics", "verify", "cli")


@dataclass
class Rep:
    """One repetition of a workload's fixed work."""

    wall_s: float          # at reference host speed, like every time below
    latencies_s: list[float]
    attempted: int
    failed: int
    unexpected: int        # failures other than the known defects of cli_mix
    rss_mb: float
    raw_wall_s: float = 0.0   # wall_s as measured, unscaled
    layers: dict | None = None
    by_kind: dict[str, list[float]] = field(default_factory=dict)


# -- set-up -------------------------------------------------------------------

def time_child(*args: str) -> float:
    res = run_child(python_child(*args))
    if res.code != 0:
        raise RuntimeError(f"{' '.join(args)} exited {res.code}: {res.stderr.decode()[-500:]}")
    return res.wall_s


def start_probe() -> float:
    """The current start time of a bare interpreter, the speed probe for
    work done in fresh processes."""
    return time_child("-c", "pass")


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the package and its
    CLI, each start scaled by the bare starts that bracket it."""
    samples = []
    before = start_probe()
    for _ in range(SETUP_REPS):
        seconds = time_child("-c", "import picard_ranges.cli")
        after = start_probe()
        samples.append(scaled(seconds, before, after, START_REF_S))
        before = after
    return statistics.median(samples)


def import_layers() -> dict:
    """cli.interpreter_ms and import.<module>_ms: medians of a bare
    interpreter start and of ``-X importtime`` self times."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPS):
        res = run_child(python_child("-X", "importtime", "-c", "import picard_ranges.cli"))
        found = dict.fromkeys(PACKAGE_MODULES, 0.0)
        found["total"] = 0.0
        for line in res.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "picard_ranges.cli":
                found["total"] = int(cumulative_us) / 1000.0
            short = name.removeprefix("picard_ranges.")
            if name.startswith("picard_ranges") and short in found:
                found[short] = int(self_us) / 1000.0
        for key, value in found.items():
            samples.setdefault(f"import.{key}_ms", []).append(value)
    out = {key: statistics.median(v) for key, v in samples.items()}
    out["cli.interpreter_ms"] = 1000.0 * statistics.median(
        time_child("-c", "pass") for _ in range(SETUP_REPS))
    return out


# -- repetitions ----------------------------------------------------------------

def worker_rep(workload: str, seed: int, scale: str, traced: bool) -> Rep:
    argv = python_child(str(BENCH / "worker.py"), "--workload", workload,
                        "--seed", str(seed), "--scale", scale) + (["--trace"] if traced else [])
    res = run_child(argv)
    lines = res.stdout.decode().splitlines()
    if res.code != 0 or not lines:
        sys.stderr.write(f"worker {workload} exited {res.code}:\n{res.stderr.decode()[-2000:]}\n")
        return Rep(res.wall_s, [res.wall_s], 1, 1, 1, res.rss_mb, res.wall_s)
    out = json.loads(lines[-1])
    if out["failed"]:
        sys.stderr.write(res.stderr.decode()[-2000:])
    return Rep(out["wall_s"], out["latencies_s"], out["attempted"], out["failed"],
               out["failed"], res.rss_mb, out["raw_wall_s"], out["layers"])


def cli_rep(calls, traced: bool, problems: set) -> Rep:
    import cli_mix
    from tracer import merge, split_stderr

    prefix = python_child(str(BENCH / "tracer.py")) if traced else python_child("-m", "picard_ranges")
    rep = Rep(0.0, [], 0, 0, 0, 0.0, 0.0, {} if traced else None)
    before = start_probe()
    for call in calls:
        res = run_child(prefix + call.argv)
        after = start_probe()
        latency = scaled(res.wall_s, before, after, START_REF_S)
        before = after
        stderr = res.stderr
        if traced:
            stderr, layers = split_stderr(stderr)
            if layers:
                merge(rep.layers, layers)
        rep.wall_s += latency
        rep.raw_wall_s += res.wall_s
        rep.latencies_s.append(latency)
        rep.rss_mb = max(rep.rss_mb, res.rss_mb)
        rep.attempted += 1
        if call.check is not None:
            rep.by_kind.setdefault(call.kind, []).append(latency)
        why = "timeout" if res.timed_out else cli_mix.judge(call, res.code, res.stdout, stderr)
        if why is not None:
            rep.failed += 1
            rep.unexpected += not call.known_defect
            problems.add((" ".join(call.argv), why, call.known_defect))
    return rep


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.problems: set = set()
        self._plans: dict = {}

    def rep(self, scale: str, traced: bool, floor_of: str | None = None) -> Rep:
        """One repetition of this run's workload, or of ``floor_of`` in the
        floor pass, whose known defects are not listed again."""
        workload = floor_of or self.workload
        if workload != "cli_mix":
            return worker_rep(workload, self.seed, scale, traced)
        if scale not in self._plans:
            import cli_mix
            self._plans[scale] = cli_mix.plan(self.seed, SCALES[scale], load_reference())
        return cli_rep(self._plans[scale], traced, set() if floor_of else self.problems)


# -- statistics -----------------------------------------------------------------

def tail(latencies: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def end_to_end(setup_s: float, reps: list[Rep]) -> dict:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": med(r.wall_s for r in reps),
        "peak_rss_mb": med(r.rss_mb for r in reps),
        "query_p50_ms": 1000.0 * med(med(r.latencies_s) for r in reps),
        "query_tail_ms": 1000.0 * med(tail(r.latencies_s) for r in reps),
    }


def per_layer(runner: Runner, reps: list[Rep], scale: str) -> tuple[dict, list[Rep]]:
    """One traced repetition of the workload, plus the floor pass: every
    workload once at smoke size, traced, so that every layer is measured on
    every workload.  Returns the layer metrics and the extra repetitions."""
    from tracer import merge

    traced = runner.rep(scale, traced=True)
    floor = [runner.rep("smoke", traced=True, floor_of=w) for w in WORKLOADS]
    layers: dict = {}
    for rep in [traced] + floor:
        merge(layers, rep.layers or {})
    by_kind: dict[str, list[float]] = {}
    for rep in [traced] + floor:
        for kind, values in rep.by_kind.items():
            by_kind.setdefault(kind, []).extend(values)
    for kind, values in sorted(by_kind.items()):
        layers[f"cli.{kind}_ms"] = 1000.0 * statistics.median(values)
    layers.update(import_layers())
    untraced = statistics.median(r.wall_s for r in reps)
    layers["trace.wall_s"] = traced.wall_s
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.overhead_pct"] = 100.0 * (traced.wall_s / untraced - 1.0)
    return layers, [traced] + floor


# -- output -------------------------------------------------------------------

def machine_line() -> str:
    return (f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"implementation={platform.python_implementation()} system={platform.system()} "
            f"machine={platform.machine()}")


def run_one(args) -> int:
    runner = Runner(args.workload, args.seed)
    time_child("-c", "import picard_ranges.cli")  # writes the bytecode caches once
    reps: list[Rep] = []
    start = time.perf_counter()
    last = 0.0   # a repetition starts only if half of one as long as the last fits
    while not reps or time.perf_counter() - start + last / 2 <= args.seconds:
        t0 = time.perf_counter()
        reps.append(runner.rep(args.scale, traced=False))
        last = time.perf_counter() - t0
    extra: list[Rep] = []
    if args.trace:
        metrics, extra = per_layer(runner, reps, args.scale)
    else:
        metrics = end_to_end(measure_setup(), reps)
    # attempted/failed count the workload's own repetitions; the floor pass
    # of a traced run must still be correct.
    own = reps + extra[:1]
    attempted = sum(r.attempted for r in own)
    failed = sum(r.failed for r in own)
    correct = not any(r.unexpected for r in reps + extra)
    floor_unexpected = sum(r.unexpected for r in extra[1:])

    print(machine_line())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} repetitions={len(reps)}")
    for why in sorted(runner.problems):
        print(f"# failed operation: {why[0]!r}: {why[1]}" + (" (known defect)" if why[2] else ""))
    if floor_unexpected:
        print(f"# floor pass: {floor_unexpected} unexpected failed operation(s)")
    print(f"# failed_ratio = {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    raw = statistics.median(r.raw_wall_s for r in reps)
    print(f"# unscaled wall_s median = {raw:.6g} s; host speed at "
          f"{statistics.median(r.wall_s / r.raw_wall_s for r in reps):.3f} of reference "
          f"(times below are at reference speed)")
    n = len(reps[0].latencies_s)
    print(f"# query samples per repetition: {n}; query_tail_ms is percentile "
          f"{100.0 * max(0, n - TAIL_BEYOND - 1) / max(1, n - 1):.1f} "
          f"({TAIL_BEYOND} samples beyond it)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = run_child(python_child(str(BENCH / "run.py"), "--workload", workload,
                                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                                     "--trace", str(args.trace), "--scale", args.scale),
                        timeout=900)
        lines = res.stdout.decode().splitlines()
        if res.code != 0 or not lines:
            sys.stderr.write(res.stderr.decode())
            return 1
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for name, metric in out["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="size of the fixed work; smoke is for checking the harness")
    args = parser.parse_args()
    if not (SRC / "picard_ranges" / "__init__.py").is_file() or not REFERENCE.is_file():
        sys.stderr.write(f"error: run from a checkout of the repository; "
                         f"{SRC / 'picard_ranges'} or {REFERENCE} is missing\n")
        return 2
    sys.path.insert(0, str(SRC))  # cli_mix checks re-parse witnesses with decomp.parse
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
