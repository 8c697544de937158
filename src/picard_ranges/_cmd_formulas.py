"""The ``witness`` and ``moduli`` handlers of the command line (see
``cli``), which a start imports only to run one."""

from __future__ import annotations

from .cli import Result, _pairs, _printable
from .formulas import completeness_witness, moduli_dims


def _cmd_witness(args, ctx) -> Result:
    w = completeness_witness(args.n, args.g)
    payload = {"n": args.n, "g": args.g, "witness": str(w), "rho": w.rho(), "dim": w.dim()}
    return Result(payload, [str(w)], tuple(payload), [payload])


def _cmd_moduli(args, ctx) -> Result:
    payload = _printable(moduli_dims(args.g, args.f, args.r)._asdict())
    md = _pairs(payload, [k for k, v in payload.items() if k != "g" and v is not None])
    return Result(payload, [md], tuple(payload), [payload])
