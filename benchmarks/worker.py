#!/usr/bin/env python3
"""One repetition of an in-process workload, in a fresh interpreter.

    python3 benchmarks/worker.py --workload scan_paper|refute_upper \\
        --seed N [--scale full|smoke] [--trace]

Every public call is one operation: it is timed on its own, and its answer
is checked against data/reference.json after the timed work has ended.
Prints one JSON line with the work's wall time (the sum of the operation
latencies), the per-operation latencies, both at reference host speed (see
common.py), the unscaled wall time, the operation counts and, with
``--trace``, the layer report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback

from common import (PROBE_EVERY_S, PROBE_REF_S, SCALES, SRC, load_reference, probe_s,
                    scaled, ss_rho)

sys.path.insert(0, str(SRC))

import picard_ranges as picard  # noqa: E402


class Ops:
    """Times each operation and defers its answer check until the timed
    work is over, so that checks never count toward wall_s.

    After every PROBE_EVERY_S of operation time it runs a speed probe, so
    that each operation lies in a segment bracketed by two probes; see
    :meth:`scaled_latencies`."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.wrong = 0
        self._checks: list = []
        self._probes = [probe_s()]
        self._segment_ends: list[int] = []   # op index after each segment
        self._since_probe = 0.0

    def _close_segment(self) -> None:
        self._probes.append(probe_s())
        self._segment_ends.append(len(self.latencies))
        self._since_probe = 0.0

    def _timed(self, t0: float) -> None:
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        self._since_probe += latency
        if self._since_probe >= PROBE_EVERY_S:
            self._close_segment()

    def scaled_latencies(self) -> list[float]:
        """Each latency at reference speed, scaled by the probes that
        bracket its segment."""
        if not self._segment_ends or self._segment_ends[-1] < len(self.latencies):
            self._close_segment()
        out: list[float] = []
        start = 0
        for i, end in enumerate(self._segment_ends):
            before, after = self._probes[i], self._probes[i + 1]
            out.extend(scaled(t, before, after, PROBE_REF_S) for t in self.latencies[start:end])
            start = end
        return out

    def __call__(self, check, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # an operation that raises is a failed operation
            self._timed(t0)
            self.failed += 1
            traceback.print_exc()
            return None
        self._timed(t0)
        if check is not None:
            self._checks.append((check, result, fn.__name__, args))
        return result

    def run_checks(self) -> None:
        for check, result, name, args in self._checks:
            try:
                ok = check(result)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                self.failed += 1
                self.wrong += 1
                print(f"wrong answer: {name}{args}", file=sys.stderr)


def parses_to(text: str, rho: int, g: int) -> bool:
    d = picard.parse(text)
    return d.rho() == rho and d.dim() == g


def witnesses_ok(found, rho: int, g: int, count: int | None) -> bool:
    texts = [str(d) for d in found]
    return (len(texts) == count and len(set(texts)) == len(texts)
            and all(parses_to(t, rho, g) for t in texts))


def scan_paper(ops: Ops, ref: dict, seed: int, scale: dict) -> None:
    """The paper scan of scripts/density_scan.py and scripts/top_of_range.py:
    per dimension, the certified set with every witness rendered, density,
    witness listing for 3 of the top 6 values, the conjecture check and,
    for smaller g, non-additivity.  The seed picks the 3 values.  Dimensions
    run in ascending order, as in the scripts, so that the seed never
    changes the order in which the caches fill."""
    rng = random.Random(seed)
    lo, hi = scale["scan_g"]
    for g in range(lo, hi + 1):
        want = ref["paper"][str(g)]
        values, star = want["values"], set(want["star"])
        cat = ops(None, picard.builtin, "paper", g)
        full = ops(lambda r, values=values, star=star:
                   sorted(r.value_set()) == values and r.star_set() == star,
                   picard.attainable, g, cat)
        ops(lambda r, star=star: r.value_set() == star, picard.attainable, g, cat, allow_ss=False)
        if full is not None:
            ops(lambda texts, full=full, g=g: all(
                    parses_to(t, v.rho, g) for t, v in zip(texts, full.values, strict=True)),
                render_witnesses, full)
        ops(lambda d, n=len(values): d.count == n, picard.density, g)
        top = values[-6:]
        for rho in sorted(rng.sample(top, min(3, len(top)))):
            count = ref["structure_paper"][str(g)].get(str(rho))
            ops(lambda found, rho=rho, g=g, count=count: witnesses_ok(found, rho, g, count),
                picard.structure_witnesses, g, rho)
        if g >= 2:
            rhs_only, lower_only = ref["conjecture"][str(g)]
            ops(lambda rep, a=rhs_only, b=lower_only:
                list(rep.rhs_only) == a and list(rep.lower_only) == b,
                picard.conjecture_check, g)
        if 2 <= g <= scale["nonadditivity_max_g"]:
            pairs = ref["nonadditivity"][str(g)]
            ops(lambda out, pairs=pairs: [list(t) for t in out] == pairs,
                picard.nonadditivity_counterexamples, g)


def render_witnesses(result) -> list[str]:
    """The witness string of every value, as a script would print them."""
    return [str(v.witness) for v in result.values]


def refute_upper(ops: Ops, ref: dict, seed: int, scale: dict) -> None:
    """The refutation path over the restrictions-only catalog: gaps, seeded
    membership queries, maxima by length, the index correspondence and
    witness listing for small g.  The seed picks the queried values, half
    of them certified and half not: a certified value costs less to query,
    so a fixed mix keeps the seed from moving the latencies.  Dimensions
    run in ascending order."""
    rng = random.Random(seed)
    lo, hi = scale["refute_g"]
    for g in range(lo, hi + 1):
        top = 2 * g * g - g
        paper = set(ref["paper"][str(g)]["values"])
        upper = ref["upper"][str(g)]["values"]
        upper_set = set(upper)
        gaps = [tuple(t) for t in ref["gaps"][str(g)]]
        ops(None, picard.builtin, "upper", g)
        ops(lambda out, gaps=gaps, g=g:
            out == gaps and out[-1] == (ss_rho(g - 1) + 2, 2 * g * g - g - 1),
            picard.gaps, g)
        certified = sorted(paper)
        uncertified = [rho for rho in range(1, top + 1) if rho not in paper]
        half = scale["memberships_per_g"] // 2
        queries = ([rng.choice(certified) for _ in range(half)]
                   + [rng.choice(uncertified) for _ in range(scale["memberships_per_g"] - half)])
        rng.shuffle(queries)
        for rho in queries:
            status = ("certified" if rho in paper else
                      "undetermined" if rho in upper_set else "refuted")
            ops(lambda m, status=status, rho=rho, g=g: m.status == status and (
                    m.witness is None if status != "certified"
                    else parses_to(str(m.witness), rho, g)),
                picard.membership, rho, g)
        maxima = ref["max_by_length"][str(g)]
        for r in range(1, g + 1):
            ops(lambda m, r=r, g=g, want=maxima[r - 1]:
                m.enumerated == want == picard.length_max_closed_form(r, g),
                picard.max_by_length, r, g)
        if g >= 7:
            wrong, outside = ref["correspondence"][str(g)]
            ops(lambda rep, wrong=wrong, outside=outside: rep.ok == (not wrong and not outside)
                and [list(t) for t in rep.wrong_index] == wrong
                and [list(t) for t in rep.outside_block] == outside,
                picard.check_ss_correspondence, g, 2)
        if g <= scale["upper_witnesses_max_g"]:
            for rho in upper[-3:]:
                count = ref["structure_upper"][str(g)][str(rho)]
                ops(lambda found, rho=rho, g=g, count=count: witnesses_ok(found, rho, g, count),
                    picard.structure_witnesses, g, rho, mode="upper")


WORKLOADS = {"scan_paper": scan_paper, "refute_upper": refute_upper}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    ref = load_reference()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = Ops()
    WORKLOADS[args.workload](ops, ref, args.seed, SCALES[args.scale])
    latencies = ops.scaled_latencies()
    layers = None
    if tracer is not None:
        layers = tracer.report()
        tracer.uninstall()
    ops.run_checks()
    print(json.dumps({"wall_s": sum(latencies), "raw_wall_s": sum(ops.latencies),
                      "latencies_s": latencies,
                      "attempted": len(latencies), "failed": ops.failed,
                      "wrong": ops.wrong, "layers": layers}))


if __name__ == "__main__":
    main()
