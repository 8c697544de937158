"""Command-line front end.

Each subcommand is one row of ``COMMANDS``, which ``build_parser`` loops
over.  A handler returns a ``Result``: JSON payload, md lines, csv column
names and records.  ``encode`` writes the ``--format`` chosen (default md):
json is the payload, md the lines, csv a header of the columns and one row
per record, a list cell joined by spaces and a null cell empty; the bytes
are a deterministic function of the input.  Enumeration commands accept
dimensions 1 to ``MAX_DIM``.  Exit codes: 0 success, 1 stdout closed by its
reader (output cut short, stderr empty), 2 usage or parse error, 3
precondition violation, 4 verification found differences (the report is
still written).  A start builds the parser of the named subcommand alone
(the full parser only when the first argument names none, as for ``-h`` or
an unknown command), each handler imports the functions it calls, and the
json and csv encoders import their modules, so a subcommand loads only the
modules it runs and a usage error loads none.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from .albert import CharContext
from .decomp import ParseError, parse

FIXTURES_ENV = "PICARD_FIXTURES"

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_DIFFS = 4

MAX_DIM = 100  # largest dimension an enumeration command accepts


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


class Result(NamedTuple):
    payload: dict
    md: list[str]
    columns: tuple[str, ...]
    records: list[dict]
    code: int = EXIT_OK


def _joined(value):
    """A list or tuple as words joined by spaces; any other value as it is."""
    return " ".join(map(str, value)) if isinstance(value, (list, tuple)) else value


def encode(out, fmt: str, result: Result) -> None:
    if fmt == "json":
        import json

        out.write(json.dumps(result.payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.columns)
        writer.writerows([_joined(r[c]) for c in result.columns] for r in result.records)
    else:
        out.write("\n".join(result.md) + "\n")


def _context(args) -> CharContext:
    return CharContext(mode="zero" if args.char == "0" else "positive", p_split_policy=args.p_split)


def _pairs(record: dict, keys) -> str:
    return " ".join(f"{k}={record[k]}" for k in keys)


def _cmd_rho(args, ctx) -> Result:
    d = parse(args.decomp)
    payload = {"decomp": str(d), "rho": d.rho(), "dim": d.dim(),
               "length": d.length(), "ss_index": d.ss_index()}
    return Result(payload, [str(d.rho())], tuple(payload), [payload])


def _cmd_range(args, ctx) -> Result:
    from .catalog import builtin, load as load_catalog
    from .ranges import attainable

    catalog = load_catalog(args.catalog, ctx) if args.catalog else builtin(args.mode, args.g, ctx)
    result = attainable(args.g, catalog, ctx, allow_ss=not args.star)
    if args.format == "md":  # md prints the values alone, so it sweeps no witness
        return Result({}, [" ".join(map(str, sorted(result.value_set())))], (), [])
    values = [{"rho": v.rho, "status": v.status, "star": v.star,
               "witness": None if v.witness is None else str(v.witness)} for v in result.values]
    payload = {"g": result.g, "char": args.char, "mode": result.mode, "values": values}
    if args.star:
        payload["star_only"] = True
    return Result(payload, [], ("rho", "status", "star", "witness"), values)


def _cmd_membership(args, ctx) -> Result:
    from .ranges import membership

    m = membership(args.rho, args.g, ctx)
    witness = None if m.witness is None else str(m.witness)
    payload = {"rho": m.rho, "g": m.g, "char": args.char, "status": m.status, "witness": witness}
    md = [m.status if witness is None else f"{m.status} {witness}"]
    return Result(payload, md, ("rho", "g", "status", "witness"), [payload])


def _cmd_gaps(args, ctx) -> Result:
    from .ranges import gaps, max_picard

    intervals = [{"lo": lo, "hi": hi} for lo, hi in gaps(args.g, ctx)]
    payload = {"g": args.g, "char": args.char, "bound": max_picard(args.g), "gaps": intervals}
    tokens = [str(i["lo"]) if i["lo"] == i["hi"] else f"{i['lo']}-{i['hi']}" for i in intervals]
    return Result(payload, [" ".join(tokens) if tokens else "(none)"], ("lo", "hi"), intervals)


def _cmd_max_by_length(args, ctx) -> Result:
    from .ranges import max_by_length

    columns = ("r", "enumerated", "closed_form", "matches")
    lengths = [dict(zip(columns, (m.r, m.enumerated, m.closed_form, m.matches)))
               for m in (max_by_length(r, args.g, ctx) for r in range(1, args.g + 1))]
    payload = {"g": args.g, "char": args.char, "lengths": lengths}
    md = [_pairs(m, columns[:3]) + ("" if m["matches"] else " MISMATCH") for m in lengths]
    return Result(payload, md, columns, lengths)


def _cmd_witness(args, ctx) -> Result:
    from .formulas import completeness_witness

    w = completeness_witness(args.n, args.g)
    payload = {"n": args.n, "g": args.g, "witness": str(w), "rho": w.rho(), "dim": w.dim()}
    return Result(payload, [str(w)], tuple(payload), [payload])


def _cmd_density(args, ctx) -> Result:
    from .asymptotics import density_table

    columns = ("g", "count", "bound", "delta")
    densities = [{"g": d.g, "count": d.count, "bound": d.bound, "delta": f"{d.count}/{d.bound}"}
                 for d in density_table(args.g_max, ctx)]
    payload = {"char": args.char, "densities": densities}
    return Result(payload, [_pairs(d, columns) for d in densities], columns, densities)


def _cmd_distribution(args, ctx) -> Result:
    from .asymptotics import check_distribution, check_ss_correspondence

    dist = check_distribution(args.g, args.ell, ctx)
    corr = check_ss_correspondence(args.g, args.ell, ctx)
    payload = {"g": args.g, "ell": args.ell, "char": args.char,
               "distribution": {"ok": dist.ok, "interval": list(dist.interval),
                                "expected": list(dist.expected), "actual": list(dist.actual),
                                "overlaps": list(dist.overlaps)},
               "correspondence": {"ok": corr.ok, "wrong_index": [list(v) for v in corr.wrong_index],
                                  "outside_block": [list(v) for v in corr.outside_block]}}
    head = f"g={args.g} ell={args.ell}:"
    md = [f"distribution {head} {'PASS' if dist.ok else 'FAIL'}",
          f"interval [{dist.interval[0]}, {dist.interval[1]}]"]
    if not dist.ok:
        md += [f"expected {_joined(dist.expected)}", f"actual {_joined(dist.actual)}"]
        if dist.overlaps:
            md.append(f"overlaps {_joined(dist.overlaps)}")
    md.append(f"correspondence {head} {'PASS' if corr.ok else 'FAIL'}")
    md += [f"violation rho={rho} block n={n} attained with ss_index={s}"
           for rho, n, s in corr.wrong_index]
    md += [f"violation ss_index={args.g - n} attains rho={rho} outside block n={n}"
           for rho, n in corr.outside_block]
    records = [{"check": "distribution", "ok": dist.ok}, {"check": "correspondence", "ok": corr.ok}]
    return Result(payload, md, ("check", "ok"), records)


def _cmd_conjecture(args, ctx) -> Result:
    from .asymptotics import conjecture_check

    rep = conjecture_check(args.g, ctx)
    payload = {"g": args.g, "char": args.char, "ok": rep.ok,
               "rhs_only": list(rep.rhs_only), "lower_only": list(rep.lower_only)}
    md = [f"conjecture g={args.g}: {'MATCH' if rep.ok else 'DIFF'}"]
    if rep.rhs_only:
        md.append("recursive side only: " + _joined(rep.rhs_only))
    if rep.lower_only:
        md.append("enumerated side only: " + _joined(rep.lower_only))
    return Result(payload, md, ("g", "ok", "rhs_only", "lower_only"), [payload])


def _cmd_nonadditivity(args, ctx) -> Result:
    from .asymptotics import nonadditivity_counterexamples

    columns = ("a", "rho_a", "b", "rho_b", "sum")
    pairs = [dict(zip(columns, (a, ra, b, rb, ra + rb)))
             for a, ra, b, rb in nonadditivity_counterexamples(args.g, ctx)]
    payload = {"g": args.g, "char": args.char, "counterexamples": pairs}
    return Result(payload, [_pairs(p, columns) for p in pairs] or ["(none)"], columns, pairs)


def _cmd_moduli(args, ctx) -> Result:
    from .formulas import moduli_dims

    payload = moduli_dims(args.g, args.f, args.r)._asdict()
    md = _pairs(payload, [k for k, v in payload.items() if k != "g" and v is not None])
    return Result(payload, [md], tuple(payload), [payload])


def _cmd_verify(args, ctx) -> Result:
    from .verify import VerifyReport, load_allowlist, load_fixtures, verify_fixture

    loaded = load_fixtures(args.fixtures or os.environ.get(FIXTURES_ENV) or None)
    for fx in loaded:  # every dimension is checked before any is enumerated
        _check_dimension(f"fixture {fx.label} dimension", fx.dimension)
    allowlist = load_allowlist()
    report = VerifyReport(tuple(verify_fixture(fx, ctx, allowlist) for fx in loaded))
    fixtures = [{"label": f.label, "dimension": f.dimension, "values_match": f.values_match,
                 "star_match": f.star_match,
                 "diffs": [{k: v for k, v in d._asdict().items() if k != "label"} for d in f.diffs]}
                for f in report.fixtures]
    payload = {"char": args.char, "ok": report.ok, "fixtures": fixtures}
    md = []
    for f in report.fixtures:
        md += [f"{f.label} values: {'PASS' if f.values_match else 'DIFF'}",
               f"{f.label} star: {'PASS' if f.star_match else 'DIFF'}"]
        for d in f.diffs:
            parts = [f"{d.label} {d.kind} {d.rho}: {d.direction}"]
            if d.witness is not None:
                parts += [f"witness {d.witness}", "checked" if d.witness_ok else "UNCHECKED"]
            parts.append("documented" if d.documented else "UNDOCUMENTED")
            md.append("  " + " | ".join(parts))
    records = [{"label": f["label"], **d} for f in fixtures for d in f["diffs"]]
    documented = sum(d["documented"] for d in records)
    md.append(f"VERIFY: {len(records)} difference(s), {documented} documented")
    columns = ("label", "kind", "rho", "direction", "witness", "witness_ok", "documented")
    return Result(payload, md, columns, records, EXIT_OK if report.ok else EXIT_DIFFS)


class Command(NamedTuple):
    name: str
    func: Callable[..., Result]
    help: str
    args: tuple  # (flag, add_argument keywords) pairs
    dim: str | None = None  # the dimension argument of an enumeration command
    char: bool = False  # takes --char and --p-split, as every enumeration command does


def _ints(*names) -> tuple:
    return tuple((name, {"type": int}) for name in names)


COMMANDS = (
    Command("rho", _cmd_rho, "Picard number of a decomposition", (("decomp", {}),)),
    Command("range", _cmd_range, "attainable set for one dimension", _ints("g") + (
        ("--mode", {"choices": ("upper", "paper"), "default": "paper"}),
        ("--catalog", {"help": "path to a JSON catalog overriding --mode"}),
        ("--star", {"action": "store_true", "help": "only supersingularity-free values"})), "g"),
    Command("membership", _cmd_membership, "certified / refuted / undetermined status of a value",
            _ints("rho", "g"), "g"),
    Command("gaps", _cmd_gaps, "refuted intervals", _ints("g"), "g"),
    Command("max-by-length", _cmd_max_by_length, "largest value per number of isogeny factors",
            _ints("g"), "g"),
    Command("witness", _cmd_witness, "constructive witness for a value in a dimension",
            _ints("n", "g")),
    Command("density", _cmd_density, "certified-set density per dimension", _ints("g_max"), "g_max"),
    Command("distribution", _cmd_distribution,
            "top-of-range block distribution and index correspondence", _ints("g", "ell"), "g"),
    Command("conjecture", _cmd_conjecture, "recursive description versus enumeration",
            _ints("g"), "g"),
    Command("nonadditivity", _cmd_nonadditivity, "sums of attainable values that are not attainable",
            _ints("g"), "g"),
    Command("moduli", _cmd_moduli, "printed moduli dimension formulas", _ints("g", "--f", "--r")),
    Command("verify", _cmd_verify, "compare computed tables against the published ones",
            (("--fixtures", {"help": f"fixtures file (overrides ${FIXTURES_ENV})"}),), char=True),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand named ``command`` alone, or with every
    subcommand when ``command`` names none."""
    parser = _Parser(prog="picard-ranges",
                     description="Attainable Picard numbers of abelian varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in [c for c in COMMANDS if c.name == command] or COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.add_argument("--format", choices=("md", "json", "csv"), default="md")
        if cmd.dim or cmd.char:
            p.add_argument("--char", choices=("p", "0"), default="p")
            p.add_argument("--p-split", dest="p_split",
                           choices=("split", "nonsplit", "unknown"), default="unknown")
        for flag, keywords in cmd.args:
            p.add_argument(flag, **keywords)
        p.set_defaults(cmd=cmd, char="p", p_split="unknown")
    return parser


def _check_dimension(name: str, g: int) -> None:
    if not 1 <= g <= MAX_DIM:
        problem = "must be positive" if g < 1 else f"= {g} is above the dimension limit {MAX_DIM}"
        raise ValueError(f"{name} {problem}")


def _parse_errors() -> tuple:
    """ParseError, and the JSON decoder's error once json is loaded: it is
    imported on use, and no JSONDecodeError is raised before it is."""
    json = sys.modules.get("json")
    return (ParseError,) if json is None else (ParseError, json.JSONDecodeError)


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:  # a command name builds its own parser alone; anything else, the full one
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse help/version paths
        return int(exc.code or 0)
    try:
        if args.cmd.dim:
            _check_dimension(args.cmd.dim, getattr(args, args.cmd.dim))
        result = args.cmd.func(args, _context(args))
    except _parse_errors() as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    encode(out, args.format, result)
    return result.code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed reader raises here, not at shutdown
    except BrokenPipeError:  # Python's SIGPIPE recipe: no second error at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
