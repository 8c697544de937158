"""The one JSON file reader, of ``--catalog`` files and of ``verify``'s
tables, packaged or given by ``--fixtures``.

It imports no module of the package but ``albert``, so ``verify`` reads and
checks its fixtures file before it compiles the enumeration, and a start
that reads no JSON file compiles none of this.
"""

from __future__ import annotations

from .albert import TOO_MANY_DIGITS, ParseError


def load_json(path: str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8 is a
    JSONDecodeError placed at its first bad byte; too deep a nesting and an
    integer above the interpreter's digit limit, a ParseError with no place."""
    import json  # imported on use, so that a start that reads no JSON file loads none

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once: exc.object is its bytes
            text = exc.object[:exc.start].decode("utf-8")
            bad = f"not UTF-8 at byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            raise json.JSONDecodeError(bad, text, len(text)) from None
        except RecursionError:  # the decoder recurses once per nesting level
            raise ParseError("arrays or objects nested too deeply") from None
        except ValueError:  # int() past its digit limit
            raise ParseError(TOO_MANY_DIGITS) from None


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value
