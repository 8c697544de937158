"""The ``witness`` and ``moduli`` handlers of the command line (see
``cli``), which a start imports only to run one.  Each handler imports the
module it calls, so ``moduli`` compiles neither ``formulas`` nor the
``decomp`` that the witness needs."""

from __future__ import annotations

from .cli import Result, _pairs, _printable


def _cmd_witness(args, ctx) -> Result:
    from .formulas import completeness_witness

    w = completeness_witness(args.n, args.g)
    payload = {"n": args.n, "g": args.g, "witness": str(w), "rho": w.rho(), "dim": w.dim()}
    return Result(payload, [str(w)], tuple(payload), [payload])


def _cmd_moduli(args, ctx) -> Result:
    from ._moduli import moduli_dims

    payload = _printable(moduli_dims(args.g, args.f, args.r)._asdict())
    md = _pairs(payload, [k for k, v in payload.items() if k != "g" and v is not None])
    return Result(payload, [md], tuple(payload), [payload])
