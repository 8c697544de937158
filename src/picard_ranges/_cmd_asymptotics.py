"""The ``density``, ``distribution``, ``conjecture`` and ``nonadditivity``
handlers of the command line (see ``cli``), which a start imports only to
run one."""

from __future__ import annotations

from .asymptotics import (
    check_distribution, check_ss_correspondence, conjecture_check, density_table,
    nonadditivity_counterexamples,
)
from .cli import Result, _joined, _pairs


def _cmd_density(args, ctx) -> Result:
    columns = ("g", "count", "bound", "delta")
    densities = [{"g": d.g, "count": d.count, "bound": d.bound, "delta": f"{d.count}/{d.bound}"}
                 for d in density_table(args.g_max, ctx)]
    payload = {"char": args.char, "densities": densities}
    return Result(payload, [_pairs(d, columns) for d in densities], columns, densities)


def _cmd_distribution(args, ctx) -> Result:
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
    columns = ("a", "rho_a", "b", "rho_b", "sum")
    pairs = [dict(zip(columns, (a, ra, b, rb, ra + rb)))
             for a, ra, b, rb in nonadditivity_counterexamples(args.g, ctx)]
    payload = {"g": args.g, "char": args.char, "counterexamples": pairs}
    return Result(payload, [_pairs(p, columns) for p in pairs] or ["(none)"], columns, pairs)
