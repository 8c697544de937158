"""Per-layer timings and counts for ``picard_ranges``, taken from outside
the package.

:class:`Tracer` swaps selected public functions, in every loaded
``picard_ranges`` module that refers to them, for wrappers that time each
outermost call and count what the call produced.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts the originals back.

Run as a script, it is ``python -m picard_ranges`` with the tracer
installed: the CLI's stdout and exit code are untouched, and the layer
report is appended to stderr as one line starting with ``MARKER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

MARKER = "#picard-bench-trace "

# (metric, module, public function): inclusive time of outermost calls.
TIMED = (
    ("catalog.build_s", "picard_ranges.catalog", "builtin"),
    ("ranges.attainable_s", "picard_ranges.ranges", "attainable"),
    ("ranges.max_by_length_s", "picard_ranges.ranges", "max_by_length"),
    ("ranges.gaps_s", "picard_ranges.ranges", "gaps"),
    ("ranges.membership_s", "picard_ranges.ranges", "membership"),
    ("ranges.structure_witnesses_s", "picard_ranges.ranges", "structure_witnesses"),
    ("decomp.parse_s", "picard_ranges.decomp", "parse"),
    ("asymptotics.density_s", "picard_ranges.asymptotics", "density"),
    ("asymptotics.conjecture_s", "picard_ranges.asymptotics", "conjecture_check"),
    ("asymptotics.nonadditivity_s", "picard_ranges.asymptotics", "nonadditivity_counterexamples"),
    ("asymptotics.correspondence_s", "picard_ranges.asymptotics", "check_ss_correspondence"),
    ("verify.verify_s", "picard_ranges.verify", "verify"),
)
FORMAT_METRIC = "decomp.format_s"   # Decomposition.__str__, the witness strings
COUNTS = ("catalog.entries", "catalog.blocks", "catalog.blocks_distinct",
          "ranges.attainable_calls", "ranges.cache_hits", "ranges.cache_misses",
          "ranges.values", "ranges.witnesses_listed")
METRICS = tuple(m for m, _, _ in TIMED) + (FORMAT_METRIC,) + COUNTS


class Tracer:
    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._restore: list = []
        self._catalogs: set = set()
        self._blocks: dict = {}
        self._results: dict = {}
        self._attainable = None
        self._cache0 = (0, 0)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import picard_ranges  # noqa: F401  (loads every submodule)
        from picard_ranges import catalog, decomp, ranges

        self._attainable = ranges.attainable
        self._cache0 = self._cache_info()
        after = {
            "builtin": self._after_builtin,
            "attainable": self._after_attainable,
            "structure_witnesses": self._after_witnesses,
        }
        for metric, module, name in TIMED:
            orig = getattr(importlib.import_module(module), name)
            self._swap(orig, self._timed(metric, orig, after.get(name)))
        self._swap(catalog.blocks_for_dim, self._counting_blocks(catalog.blocks_for_dim))
        cls = decomp.Decomposition
        self._restore.append((cls, "__str__", cls.__str__))
        cls.__str__ = self._timed(FORMAT_METRIC, cls.__str__)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _swap(self, orig, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "picard_ranges" and not modname.startswith("picard_ranges."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, metric, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._depth[metric]:
                return fn(*args, **kwargs)   # inside an outer call of fn: already timed
            tracer._depth[metric] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.seconds[metric] += time.perf_counter() - t0
                tracer._depth[metric] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counting_blocks(self, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (a["catalog"], a["ctx"], a["include_uncertain"])
            seen = tracer._blocks.setdefault(key, set())
            seen.update(block for block, _ in result if not block.is_supersingular)
            return result

        return wrapper

    def _after_builtin(self, catalog) -> None:
        self._catalogs.add(catalog)

    def _after_attainable(self, result) -> None:
        self.counts["ranges.attainable_calls"] += 1
        # Cache hits return the same object; keep it so its id stays unique.
        self._results[id(result)] = result

    def _after_witnesses(self, found) -> None:
        self.counts["ranges.witnesses_listed"] += len(found)

    def _cache_info(self) -> tuple[int, int]:
        info = getattr(self._attainable, "cache_info", None)
        if info is None:
            return (0, 0)
        info = info()
        return (info.hits, info.misses)

    # -- report --------------------------------------------------------------

    def report(self) -> dict:
        """Every metric in METRICS: seconds for timings, exact counts."""
        out = {metric: self.seconds[metric] for metric, _, _ in TIMED}
        out[FORMAT_METRIC] = self.seconds[FORMAT_METRIC]
        hits, misses = self._cache_info()
        out.update({
            "catalog.entries": sum(len(c.entries) for c in self._catalogs),
            "catalog.blocks": sum(len(s) for s in self._blocks.values()),
            "catalog.blocks_distinct": sum(len({(b.block_dim, b.rho) for b in s})
                                           for s in self._blocks.values()),
            "ranges.attainable_calls": self.counts["ranges.attainable_calls"],
            "ranges.cache_hits": hits - self._cache0[0],
            "ranges.cache_misses": misses - self._cache0[1],
            "ranges.values": sum(len(r.values) for r in self._results.values()),
            "ranges.witnesses_listed": self.counts["ranges.witnesses_listed"],
        })
        return out


def merge(total: dict, part: dict) -> dict:
    """Add one layer report into a running total."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def split_stderr(stderr: bytes) -> tuple[bytes, dict | None]:
    """Separate a traced child's layer report from the CLI's own stderr."""
    marker = ("\n" + MARKER).encode()
    head, sep, tail = stderr.partition(marker)
    if not sep:
        return stderr, None
    line, _, rest = tail.partition(b"\n")
    return head + rest, json.loads(line)


def main(argv: list[str]) -> int:
    from picard_ranges import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + MARKER + json.dumps(tracer.report()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
