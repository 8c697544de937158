#!/usr/bin/env python3
"""Density of the certified attainable set per dimension, with the count of
values missed below the ceiling 2g^2 - g."""

import argparse

from picard_ranges import CHAR_P, density_table
from picard_ranges.cli import MAX_DIM


def dimension(text):
    g = int(text)
    if not 1 <= g <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must lie in [1, {MAX_DIM}], not {g}")
    return g


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("g_max", type=dimension, nargs="?", default=25)
    args = parser.parse_args()

    print(f"{'g':>3} {'count':>6} {'bound':>6} {'missing':>8} {'delta':>8}")
    for rec in density_table(args.g_max, CHAR_P):
        print(f"{rec.g:>3} {rec.count:>6} {rec.bound:>6} "
              f"{rec.bound - rec.count:>8} {float(rec.delta):>8.4f}")


if __name__ == "__main__":
    main()
