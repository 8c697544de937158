#!/usr/bin/env python3
"""Side-by-side comparison of computed attainable sets with the published
tables for dimensions 2 through 6, plus the full discrepancy report."""

import argparse

from picard_ranges import CHAR_P, attainable, paper_catalog
from picard_ranges.cli import MAX_DIM
from picard_ranges.verify import load_fixtures, verify


def fmt_set(values, star):
    return " ".join(f"{v}*" if v in star else str(v) for v in sorted(values))


def fixtures_file(path):
    """The path of a readable fixtures file whose dimensions lie in [1, MAX_DIM]."""
    try:
        loaded = load_fixtures(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    for fx in loaded:
        if not 1 <= fx.dimension <= MAX_DIM:
            raise argparse.ArgumentTypeError(
                f"fixture {fx.label} dimension must lie in [1, {MAX_DIM}], not {fx.dimension}")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", type=fixtures_file, default=None, help="alternative fixtures file")
    args = parser.parse_args()

    for fx in load_fixtures(args.fixtures):
        result = attainable(fx.dimension, paper_catalog(fx.dimension, CHAR_P), CHAR_P)
        print(f"== {fx.label} (dimension {fx.dimension}) ==")
        print("  published:", fmt_set(fx.values, set(fx.star)))
        print("  computed: ", fmt_set(result.value_set(), result.star_set()))
    print()
    report = verify(args.fixtures)
    for diff in report.diffs:
        doc = "documented" if diff.documented else "NEW"
        print(f"{diff.label} {diff.kind} {diff.rho}: {diff.direction} "
              f"[witness {diff.witness}] ({doc})")
    print(f"{len(report.diffs)} difference(s) between computed and published tables")
    print("legend: * marks values attainable without supersingular factors")


if __name__ == "__main__":
    main()
