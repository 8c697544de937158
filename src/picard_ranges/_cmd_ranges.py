"""The ``range``, ``membership``, ``gaps`` and ``max-by-length`` handlers of
the command line (see ``cli``), which a start imports only to run one."""

from __future__ import annotations

from .catalog import builtin
from .cli import Result, _pairs
from .decomp import max_picard
from .ranges import attainable, gaps, max_by_length, membership


def _cmd_range(args, ctx) -> Result:
    if args.catalog:  # only --catalog compiles the JSON catalog reader and the type grammar
        from ._catalog_file import load

        catalog = load(args.catalog, ctx)
    else:
        catalog = builtin(args.mode, args.g, ctx)
    result = attainable(args.g, catalog, ctx, allow_ss=not args.star)
    if args.format == "md":  # md prints the values alone, so it sweeps no witness
        return Result({}, [" ".join(map(str, sorted(result.value_set())))], (), [])
    values = [{"rho": v.rho, "status": v.status, "star": v.star,
               "witness": str(v.witness)} for v in result.values]
    payload = {"g": result.g, "char": args.char, "mode": result.mode, "values": values}
    if args.star:
        payload["star_only"] = True
    return Result(payload, [], ("rho", "status", "star", "witness"), values)


def _cmd_membership(args, ctx) -> Result:
    m = membership(args.rho, args.g, ctx)
    witness = None if m.witness is None else str(m.witness)
    payload = {"rho": m.rho, "g": m.g, "char": args.char, "status": m.status, "witness": witness}
    md = [m.status if witness is None else f"{m.status} {witness}"]
    return Result(payload, md, ("rho", "g", "status", "witness"), [payload])


def _cmd_gaps(args, ctx) -> Result:
    intervals = [{"lo": lo, "hi": hi} for lo, hi in gaps(args.g, ctx)]
    payload = {"g": args.g, "char": args.char, "bound": max_picard(args.g), "gaps": intervals}
    tokens = [str(i["lo"]) if i["lo"] == i["hi"] else f"{i['lo']}-{i['hi']}" for i in intervals]
    return Result(payload, [" ".join(tokens) if tokens else "(none)"], ("lo", "hi"), intervals)


def _cmd_max_by_length(args, ctx) -> Result:
    columns = ("r", "enumerated", "closed_form", "matches")
    lengths = [dict(zip(columns, (m.r, m.enumerated, m.closed_form, m.matches)))
               for m in (max_by_length(r, args.g, ctx) for r in range(1, args.g + 1))]
    payload = {"g": args.g, "char": args.char, "lengths": lengths}
    md = [_pairs(m, columns[:3]) + ("" if m["matches"] else " MISMATCH") for m in lengths]
    return Result(payload, md, columns, lengths)
