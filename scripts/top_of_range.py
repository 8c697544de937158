#!/usr/bin/env python3
"""Structure of the top of the attainable range: for each dimension, the
largest values with their witnesses, and the refuted intervals below the
maximum 2g^2 - g."""

import argparse

from picard_ranges import CHAR_P, attainable, gaps, paper_catalog
from picard_ranges.cli import MAX_DIM


def dimension(text):
    g = int(text)
    if not 1 <= g <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must lie in [1, {MAX_DIM}], not {g}")
    return g


def positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("g_min", type=dimension, nargs="?", default=5)
    parser.add_argument("g_max", type=dimension, nargs="?", default=12)
    parser.add_argument("--top", type=positive, default=6, help="values to show per dimension")
    args = parser.parse_args()
    if args.g_min > args.g_max:
        parser.error(f"g_min {args.g_min} is above g_max {args.g_max}")

    for g in range(args.g_min, args.g_max + 1):
        result = attainable(g, paper_catalog(g, CHAR_P), CHAR_P)
        print(f"== dimension {g} ==")
        for v in result.values[-args.top:][::-1]:
            star = "*" if v.star else " "
            print(f"  rho={v.rho:>4}{star}  {v.witness}")
        intervals = ", ".join(
            f"{lo}" if lo == hi else f"{lo}..{hi}" for lo, hi in gaps(g, CHAR_P)
        )
        print(f"  refuted: {intervals}")


if __name__ == "__main__":
    main()
