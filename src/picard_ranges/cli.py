"""Command-line front end.

Every subcommand supports ``--format md|json|csv`` (default ``md``); the
three encodings carry the same data and the byte output is a deterministic
function of the input.  Exit codes: 0 success, 2 usage or parse error,
3 precondition violation, 4 verification found differences (the report is
still emitted).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .albert import CharContext
from .asymptotics import (
    check_distribution,
    check_ss_correspondence,
    completeness_witness,
    conjecture_check,
    density_table,
    moduli_dims,
    nonadditivity_counterexamples,
)
from .catalog import builtin, load as load_catalog
from .decomp import ParseError, parse
from .ranges import attainable, gaps, max_by_length, max_picard, membership
from .verify import verify

FIXTURES_ENV = "PICARD_FIXTURES"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_DIFFS = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _context(args) -> CharContext:
    if getattr(args, "char", "p") == "0":
        return CharContext(mode="zero")
    return CharContext(p_split_policy=getattr(args, "p_split", "unknown"))


def _char_label(ctx: CharContext) -> str:
    return "p" if ctx.positive else "0"


def _catalog(args, g: int, ctx: CharContext):
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog, ctx)
    return builtin(getattr(args, "mode", "paper"), g, ctx)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(out, fmt: str, payload: dict, md_lines: list[str], header, rows) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        out.write(_csv_text(header, rows))
    else:
        out.write("\n".join(md_lines) + "\n")


def _cmd_rho(args, out) -> int:
    d = parse(args.decomp)
    payload = {
        "decomp": str(d),
        "rho": d.rho(),
        "dim": d.dim(),
        "length": d.length(),
        "ss_index": d.ss_index(),
    }
    rows = [[payload["decomp"], payload["rho"], payload["dim"], payload["length"], payload["ss_index"]]]
    _emit(out, args.format, payload, [str(d.rho())],
          ["decomp", "rho", "dim", "length", "ss_index"], rows)
    return EXIT_OK


def _range_payload(result, ctx) -> dict:
    return {
        "g": result.g,
        "char": _char_label(ctx),
        "mode": result.mode,
        "values": [
            {
                "rho": v.rho,
                "status": v.status,
                "star": v.star,
                "witness": None if v.witness is None else str(v.witness),
            }
            for v in result.values
        ],
    }


def _cmd_range(args, out) -> int:
    if args.g < 1:
        raise ValueError("g must be positive")
    ctx = _context(args)
    result = attainable(args.g, _catalog(args, args.g, ctx), ctx)
    payload = _range_payload(result, ctx)
    shown = [v for v in result.values if v.star] if args.star else list(result.values)
    if args.star:
        payload["star_only"] = True
        payload["values"] = [v for v in payload["values"] if v["star"]]
    md = [" ".join(str(v.rho) for v in shown)]
    rows = [[v.rho, v.status, v.star, str(v.witness)] for v in shown]
    _emit(out, args.format, payload, md, ["rho", "status", "star", "witness"], rows)
    return EXIT_OK


def _cmd_membership(args, out) -> int:
    ctx = _context(args)
    m = membership(args.rho, args.g, ctx)
    witness = None if m.witness is None else str(m.witness)
    payload = {"rho": m.rho, "g": m.g, "char": _char_label(ctx), "status": m.status, "witness": witness}
    md = [m.status if witness is None else f"{m.status} {witness}"]
    _emit(out, args.format, payload, md, ["rho", "g", "status", "witness"],
          [[m.rho, m.g, m.status, witness]])
    return EXIT_OK


def _cmd_gaps(args, out) -> int:
    ctx = _context(args)
    intervals = gaps(args.g, ctx)
    payload = {"g": args.g, "char": _char_label(ctx), "bound": max_picard(args.g),
               "gaps": [{"lo": lo, "hi": hi} for lo, hi in intervals]}
    tokens = [str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in intervals]
    md = [" ".join(tokens) if tokens else "(none)"]
    _emit(out, args.format, payload, md, ["lo", "hi"], [[lo, hi] for lo, hi in intervals])
    return EXIT_OK


def _cmd_max_by_length(args, out) -> int:
    if args.g < 1:
        raise ValueError("g must be positive")
    ctx = _context(args)
    results = [max_by_length(r, args.g, ctx) for r in range(1, args.g + 1)]
    payload = {"g": args.g, "char": _char_label(ctx),
               "lengths": [{"r": m.r, "enumerated": m.enumerated,
                            "closed_form": m.closed_form, "matches": m.matches}
                           for m in results]}
    md = [f"r={m.r} enumerated={m.enumerated} closed_form={m.closed_form}"
          + ("" if m.matches else " MISMATCH") for m in results]
    rows = [[m.r, m.enumerated, m.closed_form, m.matches] for m in results]
    _emit(out, args.format, payload, md, ["r", "enumerated", "closed_form", "matches"], rows)
    return EXIT_OK


def _cmd_witness(args, out) -> int:
    w = completeness_witness(args.n, args.g)
    payload = {"n": args.n, "g": args.g, "witness": str(w), "rho": w.rho(), "dim": w.dim()}
    _emit(out, args.format, payload, [str(w)], ["n", "g", "witness", "rho", "dim"],
          [[args.n, args.g, str(w), w.rho(), w.dim()]])
    return EXIT_OK


def _cmd_density(args, out) -> int:
    ctx = _context(args)
    records = density_table(args.g_max, ctx)
    payload = {"char": _char_label(ctx),
               "densities": [{"g": d.g, "count": d.count, "bound": d.bound,
                              "delta": f"{d.count}/{d.bound}"} for d in records]}
    md = [f"g={d.g} count={d.count} bound={d.bound} delta={d.count}/{d.bound}" for d in records]
    rows = [[d.g, d.count, d.bound, f"{d.count}/{d.bound}"] for d in records]
    _emit(out, args.format, payload, md, ["g", "count", "bound", "delta"], rows)
    return EXIT_OK


def _cmd_distribution(args, out) -> int:
    ctx = _context(args)
    dist = check_distribution(args.g, args.ell, ctx)
    corr = check_ss_correspondence(args.g, args.ell, ctx)
    payload = {
        "g": args.g,
        "ell": args.ell,
        "char": _char_label(ctx),
        "distribution": {
            "ok": dist.ok,
            "interval": list(dist.interval),
            "expected": list(dist.expected),
            "actual": list(dist.actual),
            "overlaps": list(dist.overlaps),
        },
        "correspondence": {
            "ok": corr.ok,
            "wrong_index": [list(v) for v in corr.wrong_index],
            "outside_block": [list(v) for v in corr.outside_block],
        },
    }
    md = [
        f"distribution g={args.g} ell={args.ell}: {'PASS' if dist.ok else 'FAIL'}",
        f"interval [{dist.interval[0]}, {dist.interval[1]}]",
    ]
    if not dist.ok:
        md.append("expected " + " ".join(map(str, dist.expected)))
        md.append("actual " + " ".join(map(str, dist.actual)))
        if dist.overlaps:
            md.append("overlaps " + " ".join(map(str, dist.overlaps)))
    md.append(f"correspondence g={args.g} ell={args.ell}: {'PASS' if corr.ok else 'FAIL'}")
    for rho, n, s in corr.wrong_index:
        md.append(f"violation rho={rho} block n={n} attained with ss_index={s}")
    for rho, n in corr.outside_block:
        md.append(f"violation ss_index={args.g - n} attains rho={rho} outside block n={n}")
    rows = [["distribution", dist.ok], ["correspondence", corr.ok]]
    _emit(out, args.format, payload, md, ["check", "ok"], rows)
    return EXIT_OK


def _cmd_conjecture(args, out) -> int:
    ctx = _context(args)
    rep = conjecture_check(args.g, ctx)
    payload = {"g": args.g, "char": _char_label(ctx), "ok": rep.ok,
               "rhs_only": list(rep.rhs_only), "lower_only": list(rep.lower_only)}
    md = [f"conjecture g={args.g}: {'MATCH' if rep.ok else 'DIFF'}"]
    if rep.rhs_only:
        md.append("recursive side only: " + " ".join(map(str, rep.rhs_only)))
    if rep.lower_only:
        md.append("enumerated side only: " + " ".join(map(str, rep.lower_only)))
    _emit(out, args.format, payload, md, ["g", "ok", "rhs_only", "lower_only"],
          [[args.g, rep.ok, " ".join(map(str, rep.rhs_only)), " ".join(map(str, rep.lower_only))]])
    return EXIT_OK


def _cmd_nonadditivity(args, out) -> int:
    ctx = _context(args)
    pairs = nonadditivity_counterexamples(args.g, ctx)
    payload = {"g": args.g, "char": _char_label(ctx),
               "counterexamples": [{"a": a, "rho_a": ra, "b": b, "rho_b": rb, "sum": ra + rb}
                                   for a, ra, b, rb in pairs]}
    md = [f"a={a} rho_a={ra} b={b} rho_b={rb} sum={ra + rb}" for a, ra, b, rb in pairs] or ["(none)"]
    rows = [[a, ra, b, rb, ra + rb] for a, ra, b, rb in pairs]
    _emit(out, args.format, payload, md, ["a", "rho_a", "b", "rho_b", "sum"], rows)
    return EXIT_OK


def _cmd_moduli(args, out) -> int:
    dims = moduli_dims(args.g, args.f, args.r)
    payload = {"g": dims.g, "dim_moduli": dims.dim_moduli,
               "dim_supersingular_locus": dims.dim_supersingular_locus,
               "dim_p_rank_locus": dims.dim_p_rank_locus,
               "dim_large_picard_locus": dims.dim_large_picard_locus}
    md_parts = [f"dim_moduli={dims.dim_moduli}",
                f"dim_supersingular_locus={dims.dim_supersingular_locus}"]
    if dims.dim_p_rank_locus is not None:
        md_parts.append(f"dim_p_rank_locus={dims.dim_p_rank_locus}")
    if dims.dim_large_picard_locus is not None:
        md_parts.append(f"dim_large_picard_locus={dims.dim_large_picard_locus}")
    _emit(out, args.format, payload, [" ".join(md_parts)],
          ["g", "dim_moduli", "dim_supersingular_locus", "dim_p_rank_locus", "dim_large_picard_locus"],
          [[dims.g, dims.dim_moduli, dims.dim_supersingular_locus,
            dims.dim_p_rank_locus, dims.dim_large_picard_locus]])
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    ctx = _context(args)
    fixtures = args.fixtures or os.environ.get(FIXTURES_ENV) or None
    report = verify(fixtures, ctx)
    payload = {
        "char": _char_label(ctx),
        "ok": report.ok,
        "fixtures": [
            {
                "label": f.label,
                "dimension": f.dimension,
                "values_match": f.values_match,
                "star_match": f.star_match,
                "diffs": [
                    {"kind": d.kind, "rho": d.rho, "direction": d.direction,
                     "witness": d.witness, "witness_ok": d.witness_ok,
                     "documented": d.documented}
                    for d in f.diffs
                ],
            }
            for f in report.fixtures
        ],
    }
    md = []
    for f in report.fixtures:
        md.append(f"{f.label} values: {'PASS' if f.values_match else 'DIFF'}")
        md.append(f"{f.label} star: {'PASS' if f.star_match else 'DIFF'}")
        for d in f.diffs:
            parts = [f"{d.label} {d.kind} {d.rho}: {d.direction}"]
            if d.witness is not None:
                parts.append(f"witness {d.witness}")
                parts.append("checked" if d.witness_ok else "UNCHECKED")
            parts.append("documented" if d.documented else "UNDOCUMENTED")
            md.append("  " + " | ".join(parts))
    n_diffs = len(report.diffs)
    n_doc = sum(1 for d in report.diffs if d.documented)
    md.append(f"VERIFY: {n_diffs} difference(s), {n_doc} documented")
    rows = [[d.label, d.kind, d.rho, d.direction, d.witness, d.witness_ok, d.documented]
            for d in report.diffs]
    _emit(out, args.format, payload, md,
          ["label", "kind", "rho", "direction", "witness", "witness_ok", "documented"], rows)
    return EXIT_OK if report.ok else EXIT_DIFFS


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("md", "json", "csv"), default="md")
    charopts = argparse.ArgumentParser(add_help=False)
    charopts.add_argument("--char", choices=("p", "0"), default="p")
    charopts.add_argument("--p-split", dest="p_split",
                          choices=("split", "nonsplit", "unknown"), default="unknown")

    parser = _Parser(prog="picard-ranges",
                     description="Attainable Picard numbers of abelian varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", parents=[shared], help="Picard number of a decomposition")
    p.add_argument("decomp")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("range", parents=[shared, charopts], help="attainable set for one dimension")
    p.add_argument("g", type=int)
    p.add_argument("--mode", choices=("upper", "paper", "conservative"), default="paper")
    p.add_argument("--catalog", help="path to a JSON catalog overriding --mode")
    p.add_argument("--star", action="store_true", help="only supersingularity-free values")
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("membership", parents=[shared, charopts],
                       help="certified / refuted / undetermined status of a value")
    p.add_argument("rho", type=int)
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("gaps", parents=[shared, charopts], help="refuted intervals")
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("max-by-length", parents=[shared, charopts],
                       help="largest value per number of isogeny factors")
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_max_by_length)

    p = sub.add_parser("witness", parents=[shared],
                       help="constructive witness for a value in a dimension")
    p.add_argument("n", type=int)
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("density", parents=[shared, charopts],
                       help="certified-set density per dimension")
    p.add_argument("g_max", type=int)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("distribution", parents=[shared, charopts],
                       help="top-of-range block distribution and index correspondence")
    p.add_argument("g", type=int)
    p.add_argument("ell", type=int)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("conjecture", parents=[shared, charopts],
                       help="recursive description versus enumeration")
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("nonadditivity", parents=[shared, charopts],
                       help="sums of attainable values that are not attainable")
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_nonadditivity)

    p = sub.add_parser("moduli", parents=[shared], help="printed moduli dimension formulas")
    p.add_argument("g", type=int)
    p.add_argument("--f", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser("verify", parents=[shared, charopts],
                       help="compare computed tables against the published ones")
    p.add_argument("--fixtures", help=f"fixtures file (overrides ${FIXTURES_ENV})")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse help/version paths
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except (ParseError, json.JSONDecodeError) as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
