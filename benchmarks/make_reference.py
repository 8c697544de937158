#!/usr/bin/env python3
"""Write data/reference.json, the answers the benchmark checks against.

The committed file was generated from the program as it stood when the
benchmark was defined.  It holds only answers that do not depend on which
witness a value is given: value sets, star sets, gaps, counts, maxima and
check outcomes.  Witness strings are never compared byte for byte; the
benchmark re-parses them instead.  Regenerate only on a deliberate change
of answers, and say so where the change is recorded:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import sys

from common import (DATA, REF_CLI_G, REF_SCAN_G, REF_UPPER_G, REF_WITNESS_G,
                    REFERENCE, SRC)

sys.path.insert(0, str(SRC))

import picard_ranges as picard  # noqa: E402
from picard_ranges.albert import CharContext  # noqa: E402
from picard_ranges.catalog import blocks_for_dim  # noqa: E402

CHAR_ZERO = CharContext(mode="zero")


def value_sets(result) -> dict:
    return {"values": sorted(result.value_set()), "star": sorted(result.star_set())}


def block_pool() -> list:
    """Non-supersingular blocks of dimension <= 3 that the grammar can spell,
    with their Picard number and dimension."""
    pool = []
    catalog = picard.upper_catalog(3)
    for m in range(1, 4):
        for block, _ in blocks_for_dim(catalog, m, picard.CHAR_P, True):
            if not block.is_supersingular and block.rho <= 30:
                pool.append([str(block), block.rho, block.block_dim])
    return pool


def main() -> None:
    ref: dict = {"paper": {}, "upper": {}, "char0": {}, "gaps": {}, "conjecture": {},
                 "nonadditivity": {}, "structure_paper": {}, "structure_upper": {},
                 "max_by_length": {}, "correspondence": {}, "completeness_bound": {}}
    for g in range(1, REF_SCAN_G + 1):
        full = picard.attainable(g, picard.builtin("paper", g))
        ref["paper"][g] = value_sets(full)
        ref["structure_paper"][g] = {
            v.rho: len(picard.structure_witnesses(g, v.rho)) for v in full.values[-6:]}
        if g >= 2:
            rep = picard.conjecture_check(g)
            ref["conjecture"][g] = [list(rep.rhs_only), list(rep.lower_only)]
            ref["nonadditivity"][g] = [list(t) for t in picard.nonadditivity_counterexamples(g)]
    for g in range(1, REF_UPPER_G + 1):
        upper = picard.attainable(g, picard.builtin("upper", g))
        ref["upper"][g] = value_sets(upper)
        ref["gaps"][g] = [list(t) for t in picard.gaps(g)]
        ref["max_by_length"][g] = [picard.max_by_length(r, g).enumerated for r in range(1, g + 1)]
        ref["structure_upper"][g] = {
            v.rho: len(picard.structure_witnesses(g, v.rho, mode="upper")) for v in upper.values[-3:]}
        if g >= picard.min_genus(2):
            rep = picard.check_ss_correspondence(g, 2)
            ref["correspondence"][g] = [[list(t) for t in rep.wrong_index],
                                        [list(t) for t in rep.outside_block]]
    for g in range(1, REF_CLI_G + 1):
        ref["char0"][g] = value_sets(picard.attainable(g, picard.builtin("paper", g, CHAR_ZERO), CHAR_ZERO))
    for g in range(REF_WITNESS_G[0], REF_WITNESS_G[1] + 1):
        ref["completeness_bound"][g] = picard.completeness_bound(g)
    ref["verify"] = [[d.label, d.kind, d.rho, d.direction, d.witness is not None, d.documented]
                     for d in picard.verify().diffs]
    ref["blocks"] = block_pool()
    DATA.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
