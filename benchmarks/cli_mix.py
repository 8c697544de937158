"""The ``cli_mix`` workload: a seeded sequence of ``python -m picard_ranges``
invocations, each in a fresh process, with a check of every answer.

The shape of the sequence is fixed (how many invocations of each kind, see
``SCALES`` in common.py); the seed picks their arguments, output formats
and order.  Malformed inputs must end in their documented exit code (2 or
3) without a traceback.  Three of them reproduce known robustness defects
and fail on the program as it stands; they stay in the mix so that a fix
shows as fewer failed operations.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from common import BENCH, ROOT, ss_rho

FORMATS = ("md", "json", "csv")
RANGE_FLAGS = ([], ["--star"], ["--char", "0"], ["--mode", "upper"], ["--mode", "upper", "--star"])


@dataclass
class Invocation:
    argv: list[str]
    expect_exit: tuple[int, ...]
    check: Callable[[str], bool] | None = None
    known_defect: bool = False

    @property
    def kind(self) -> str:
        return self.argv[0]


def _fixture(name: str) -> str:
    return str((BENCH / "data" / name).relative_to(ROOT))


# Malformed inputs and their documented exit codes.  The last three are the
# reproduced robustness defects: max-by-length 0 exits 0 with empty output,
# and verify --fixtures raises a traceback on a file without "dimension" or
# holding a top-level array.
MALFORMED = (
    (["rho", "ss^"], (2,), False),
    (["rho", "cm ** ord"], (2,), False),
    (["rho", "[I(1); dim=0]"], (3,), False),
    (["range", "0"], (3,), False),
    (["range", "abc"], (2,), False),
    (["membership", "0", "4"], (3,), False),
    (["witness", "200", "5"], (3,), False),
    (["frobnicate", "3"], (2,), False),
    (["gaps", "3", "--format", "xml"], (2,), False),
    (["verify", "--fixtures", _fixture("missing_fixtures.json")], (2,), False),
    (["max-by-length", "0"], (3,), True),
    (["verify", "--fixtures", _fixture("fixtures_no_dimension.json")], (2, 3), True),
    (["verify", "--fixtures", _fixture("fixtures_top_level_array.json")], (2, 3), True),
)


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _parses_to(text: str, rho: int, g: int) -> bool:
    from picard_ranges.decomp import parse

    d = parse(text)
    return d.rho() == rho and d.dim() == g


def _rho(rng: random.Random, ref: dict) -> Invocation:
    """A random grammar string: 1-3 catalogue blocks, maybe a supersingular
    power, in random order with random spacing around '*'."""
    parts = [rng.choice(ref["blocks"]) for _ in range(rng.randint(1, 3))]
    ss = rng.randint(0, 3)
    texts = [p[0] for p in parts] + ([f"ss^{ss}" if ss > 1 else "ss"] if ss else [])
    rng.shuffle(texts)
    text = "".join(t + rng.choice((" * ", "*", "  *  ")) for t in texts[:-1]) + texts[-1]
    rho = sum(p[1] for p in parts) + (ss_rho(ss) if ss else 0)
    dim = sum(p[2] for p in parts) + ss
    fmt = rng.choice(FORMATS)

    def check(out: str) -> bool:
        if fmt == "md":
            return out == f"{rho}\n"
        if fmt == "json":
            obj = json.loads(out)
            return obj["rho"] == rho and obj["dim"] == dim and obj["ss_index"] == ss
        row = _rows(out)[1]
        return int(row[1]) == rho and int(row[2]) == dim

    return Invocation(["rho", text, "--format", fmt], (0,), check)


def _membership(rng: random.Random, ref: dict) -> Invocation:
    g = rng.randint(2, 8)
    rho = rng.randint(1, 2 * g * g - g)
    status = ("certified" if rho in ref["paper"][str(g)]["values"] else
              "undetermined" if rho in ref["upper"][str(g)]["values"] else "refuted")
    fmt = rng.choice(("md", "json"))

    def check(out: str) -> bool:
        if fmt == "md":
            got, _, witness = out.rstrip("\n").partition(" ")
        else:
            obj = json.loads(out)
            got, witness = obj["status"], obj["witness"] or ""
        if got != status:
            return False
        return _parses_to(witness, rho, g) if status == "certified" else not witness

    return Invocation(["membership", str(rho), str(g), "--format", fmt], (0,), check)


def _witness(rng: random.Random, ref: dict) -> Invocation:
    bounds = ref["completeness_bound"]
    g = rng.choice(sorted(int(k) for k in bounds))
    n = rng.randint(1, bounds[str(g)])
    fmt = rng.choice(("md", "json"))

    def check(out: str) -> bool:
        text = out.rstrip("\n") if fmt == "md" else json.loads(out)["witness"]
        return _parses_to(text, n, g)

    return Invocation(["witness", str(n), str(g), "--format", fmt], (0,), check)


def _range(rng: random.Random, ref: dict) -> Invocation:
    g = rng.randint(1, 8)
    flags = rng.choice(RANGE_FLAGS)
    fmt = rng.choice(FORMATS)
    table = "char0" if "--char" in flags else "upper" if "upper" in flags else "paper"
    want = ref[table][str(g)]
    star = set(want["star"])
    shown = sorted(star) if "--star" in flags else want["values"]
    status = "upper-only" if table == "upper" else "certified"

    def check(out: str) -> bool:
        if fmt == "md":
            return out == " ".join(map(str, shown)) + "\n"
        if fmt == "json":
            values = [(v["rho"], v["status"], v["star"], v["witness"]) for v in json.loads(out)["values"]]
        else:
            values = [(int(r[0]), r[1], r[2] == "True", r[3]) for r in _rows(out)[1:]]
        return ([v[0] for v in values] == shown
                and all(s == status and flag == (rho in star) and _parses_to(w, rho, g)
                        for rho, s, flag, w in values))

    return Invocation(["range", str(g), *flags, "--format", fmt], (0,), check)


def _gaps(rng: random.Random, ref: dict) -> Invocation:
    g = rng.randint(1, 8)
    want = [tuple(t) for t in ref["gaps"][str(g)]]
    fmt = rng.choice(("md", "json"))

    def check(out: str) -> bool:
        if fmt == "json":
            return [(d["lo"], d["hi"]) for d in json.loads(out)["gaps"]] == want
        tokens = [str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in want]
        return out == (" ".join(tokens) if tokens else "(none)") + "\n"

    return Invocation(["gaps", str(g), "--format", fmt], (0,), check)


def _moduli(rng: random.Random, ref: dict) -> Invocation:
    g = rng.randint(1, 60)
    f, r = rng.randint(0, g), rng.randint(0, g)
    want = {"g": g, "dim_moduli": g * (g + 1) // 2, "dim_supersingular_locus": g * g // 4,
            "dim_p_rank_locus": g * (g + 1) // 2 - g + f,
            "dim_large_picard_locus": (g - r) * (g - r) // 4 + r * (r + 1) // 2}
    return Invocation(["moduli", str(g), "--f", str(f), "--r", str(r), "--format", "json"],
                      (0,), lambda out: json.loads(out) == want)


def _verify(rng: random.Random, ref: dict) -> Invocation:
    diffs = ref["verify"]
    fmt = rng.choice(("md", "json"))

    def check(out: str) -> bool:
        if fmt == "md":
            documented = sum(d[5] for d in diffs)
            return out.endswith(f"VERIFY: {len(diffs)} difference(s), {documented} documented\n")
        found = [(f["label"], d) for f in json.loads(out)["fixtures"] for d in f["diffs"]]
        got = [[label, d["kind"], d["rho"], d["direction"], d["witness"] is not None,
                d["documented"]] for label, d in found]
        return got == diffs and all(d["witness_ok"] for _, d in found if d["witness"] is not None)

    return Invocation(["verify", "--format", fmt], (4,), check)


def _max_by_length(rng: random.Random, ref: dict) -> Invocation:
    g = rng.randint(1, 6)
    want = ref["max_by_length"][str(g)]

    def check(out: str) -> bool:
        lines = out.splitlines()
        return len(lines) == g and all(
            line == f"r={r} enumerated={m} closed_form={m}" for r, (line, m) in enumerate(zip(lines, want), 1))

    return Invocation(["max-by-length", str(g)], (0,), check)


MAKERS = {"rho": _rho, "membership": _membership, "witness": _witness, "range": _range,
          "gaps": _gaps, "moduli": _moduli, "verify": _verify, "max-by-length": _max_by_length}


def plan(seed: int, scale: dict, ref: dict) -> list[Invocation]:
    """The seeded invocation sequence of one pass."""
    rng = random.Random(seed)
    calls = [MAKERS[kind](rng, ref) for kind, n in scale["cli_counts"].items() for _ in range(n)]
    for argv, codes, defect in MALFORMED:
        if scale["cli_malformed"] == "all" or defect:
            calls.append(Invocation(list(argv), codes, None, defect))
    rng.shuffle(calls)
    return calls


def judge(call: Invocation, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """None when the invocation behaved as documented, else why not."""
    if b"Traceback" in stderr:
        return "traceback"
    if code not in call.expect_exit:
        return f"exit {code}, documented {call.expect_exit}"
    if call.check is not None:
        try:
            ok = call.check(stdout.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            ok = False
        if not ok:
            return "wrong answer"
    return None
