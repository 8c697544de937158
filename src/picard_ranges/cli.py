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
still written).  ``Command.arguments`` lists the flags and positionals of
a subcommand once, for both of its parsers.  ``run`` first reads a plain
command line (a command name, its positionals, its flags spelled in full
with valid values) with ``_plain_args``, a loop over that list, into the
namespace argparse would return.  Everything else, help and every usage
error included, goes to argparse, which builds the parser of the named
subcommand alone (the full parser only when the first argument names none,
as for ``-h`` or an unknown command) and writes all of their text.  So a
well-formed start, like ``import picard_ranges.cli``, loads no argparse,
and neither the ``gettext`` it imports nor the ``locale`` that ``gettext``
imports.  Each ``COMMANDS`` row names the module of its
handler: ``rho``'s is this one; the others live in ``_cmd_ranges``,
``_cmd_formulas``, ``_cmd_asymptotics`` and ``_cmd_verify``, one per
library module they call.  ``run`` imports that module only once the
arguments parse and the dimension is within the limit, and the json and
csv encoders import their modules on use.  The readers are compiled only by
a start that reads: the two text grammars (``_grammar``) by ``rho``,
``verify`` and ``range --catalog``, the JSON file reader (``_jsonfile``) by
``verify`` and ``range --catalog``, and the catalog reader
(``_catalog_file``) by ``range --catalog`` alone; ``verify`` reads and
checks its fixtures file before it imports the enumeration.  So a
subcommand compiles one handler group and loads only the modules it runs,
and a usage error loads no package module but this one.  ``main`` freezes the collector's objects
before it exits, so the collections at interpreter shutdown skip them;
``run`` leaves the collector as it is.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

FIXTURES_ENV = "PICARD_FIXTURES"

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_DIFFS = 4

MAX_DIM = 100  # largest dimension an enumeration command accepts


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


def _context(args):
    from .albert import CharContext

    return CharContext(mode="zero" if args.char == "0" else "positive", p_split_policy=args.p_split)


def _pairs(record: dict, keys) -> str:
    return " ".join(f"{k}={record[k]}" for k in keys)


def _printable(payload: dict) -> dict:
    """``payload``, once every field converts to text, as json and csv print
    it; a field past the interpreter's digit limit for ``str()`` of an int
    is a ``ValueError``, so that every format gives one exit code."""
    for key, value in payload.items():
        try:
            str(value)
        except ValueError:
            raise ValueError(f"{key} has more digits than str() accepts") from None
    return payload


def _cmd_rho(args, ctx) -> Result:
    from ._grammar import parse

    d = parse(args.decomp)
    payload = _printable({"decomp": str(d), "rho": d.rho(), "dim": d.dim(),
                          "length": d.length(), "ss_index": d.ss_index()})
    return Result(payload, [str(d.rho())], tuple(payload), [payload])


_FORMAT = ("--format", {"choices": ("md", "json", "csv"), "default": "md"})
# what _context reads, also for a command that takes no --char or --p-split
_CHAR_DEFAULTS = {"char": "p", "p_split": "unknown"}
_CHAR = (("--char", {"choices": ("p", "0"), "default": "p"}),
         ("--p-split", {"dest": "p_split", "choices": ("split", "nonsplit", "unknown"),
                        "default": "unknown"}))


class Command(NamedTuple):
    name: str
    module: str  # the picard_ranges module that defines the handler
    help: str
    args: tuple  # (flag, add_argument keywords) pairs
    dim: str | None = None  # the dimension argument of an enumeration command
    char: bool = False  # takes --char and --p-split, as every enumeration command does

    def arguments(self):
        """Every (flag, add_argument keywords) pair of the subcommand, in
        the order its parser adds them: ``--format``, ``--char`` and
        ``--p-split`` when it takes them, then the row's own."""
        yield _FORMAT
        if self.dim or self.char:
            yield from _CHAR
        yield from self.args

    def handler(self) -> Callable[..., Result]:
        """``_cmd_<name>`` of the row's module, imported on this call."""
        name = "_cmd_" + self.name.replace("-", "_")
        # __import__, not importlib.import_module: -X importtime reports it
        return getattr(__import__(f"{__package__}.{self.module}", fromlist=[name]), name)


def _ints(*names) -> tuple:
    return tuple((name, {"type": int}) for name in names)


COMMANDS = (
    Command("rho", "cli", "Picard number of a decomposition", (("decomp", {}),)),
    Command("range", "_cmd_ranges", "attainable set for one dimension", _ints("g") + (
        ("--mode", {"choices": ("upper", "paper"), "default": "paper"}),
        ("--catalog", {"help": "path to a JSON catalog overriding --mode"}),
        ("--star", {"action": "store_true", "help": "only supersingularity-free values"})), "g"),
    Command("membership", "_cmd_ranges", "certified / refuted / undetermined status of a value",
            _ints("rho", "g"), "g"),
    Command("gaps", "_cmd_ranges", "refuted intervals", _ints("g"), "g"),
    Command("max-by-length", "_cmd_ranges", "largest value per number of isogeny factors",
            _ints("g"), "g"),
    Command("witness", "_cmd_formulas", "constructive witness for a value in a dimension",
            _ints("n", "g")),
    Command("density", "_cmd_asymptotics", "certified-set density per dimension",
            _ints("g_max"), "g_max"),
    Command("distribution", "_cmd_asymptotics",
            "top-of-range block distribution and index correspondence", _ints("g", "ell"), "g"),
    Command("conjecture", "_cmd_asymptotics", "recursive description versus enumeration",
            _ints("g"), "g"),
    Command("nonadditivity", "_cmd_asymptotics",
            "sums of attainable values that are not attainable", _ints("g"), "g"),
    Command("moduli", "_cmd_formulas", "printed moduli dimension formulas",
            _ints("g", "--f", "--r")),
    Command("verify", "_cmd_verify", "compare computed tables against the published ones",
            (("--fixtures", {"help": f"fixtures file (overrides ${FIXTURES_ENV})"}),), char=True),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand named ``command`` alone, or with every
    subcommand when ``command`` names none."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="picard-ranges",
                     description="Attainable Picard numbers of abelian varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in [c for c in COMMANDS if c.name == command] or COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag, keywords in cmd.arguments():
            p.add_argument(flag, **keywords)
        p.set_defaults(cmd=cmd, **_CHAR_DEFAULTS)
    return parser


def _plain_args(argv) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for a plain command
    line, or ``None``, and argparse decides.  Plain is a command name, then
    in any order its positionals, each exactly once, and its flags spelled
    in full, each at most once; a flag's value is the next argument, which
    does not start with ``-``.  Every value is converted and checked as
    argparse does.  So help, every usage error and every other spelling
    argparse accepts (an abbreviated flag, ``--flag=value``, a repeated
    flag, ``--``, a negative number) go to argparse."""
    cmd = next((c for c in COMMANDS if argv and c.name == argv[0]), None)
    if cmd is None:
        return None
    args = {"command": cmd.name, "cmd": cmd, **_CHAR_DEFAULTS}
    flags, positionals = {}, []
    for flag, keywords in cmd.arguments():
        if not flag.startswith("-"):
            positionals.append((flag, keywords))
            continue
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        switch = keywords.get("action") == "store_true"
        flags[flag] = dest, switch, keywords
        args[dest] = keywords.get("default", False if switch else None)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            if token not in flags:
                return None
            dest, switch, keywords = flags.pop(token)  # popped: a repeat is not plain
            if switch:
                args[dest] = True
                continue
            token = next(tokens, "-")  # a missing value is not plain
            if token.startswith("-"):
                return None
        elif positionals:
            dest, keywords = positionals.pop(0)
        else:
            return None
        try:
            value = keywords.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = value
    return None if positionals else SimpleNamespace(**args)


def _check_dimension(name: str, g: int) -> None:
    if not 1 <= g <= MAX_DIM:
        problem = "must be positive" if g < 1 else f"= {g} is above the dimension limit {MAX_DIM}"
        raise ValueError(f"{name} {problem}")


def _parse_errors() -> tuple:
    """ParseError and the JSON decoder's error, each once the module that
    defines it is loaded (``albert`` and ``json``): both are imported on use,
    and neither error is raised before."""
    return tuple(getattr(sys.modules[module], name)
                 for module, name in ((f"{__package__}.albert", "ParseError"),
                                      ("json", "JSONDecodeError"))
                 if module in sys.modules)


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _plain_args(argv)
    if args is None:  # argparse writes the text of help and of every usage error
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
        result = args.cmd.handler()(args, _context(args))
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
    # freezing before exit spares the shutdown collections a walk over every
    # object alive now; atexit callbacks and stream flushes still run
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed reader raises here, not at shutdown
    except BrokenPipeError:  # Python's SIGPIPE recipe: no second error at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    if __spec__ is None:  # run as a file path, outside the package: no handler module imports
        sys.stderr.write("error: run picard-ranges or python -m picard_ranges, not cli.py as a file\n")
        sys.exit(EXIT_USAGE)
    # run as picard_ranges.cli, so that a handler module's import of it
    # finds this module and does not compile cli.py a second time
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
