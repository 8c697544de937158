"""The ``verify`` handler of the command line (see ``cli``), which a start
imports only to run it."""

from __future__ import annotations

from .cli import EXIT_DIFFS, EXIT_OK, Result, _check_dimension
from .verify import VerifyReport, load_allowlist, load_fixtures, verify_fixture


def _cmd_verify(args, ctx) -> Result:
    loaded = load_fixtures(args.fixtures)
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
