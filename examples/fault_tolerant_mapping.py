#!/usr/bin/env python3
"""Fault-tolerant self-mapping on a defective crossbar (Section IV).

End-to-end flow:

1. synthesize a function onto a diode array (the application program);
2. fabricate a defective 16 x 16 crossbar (random stuck-open/closed map);
3. run BIST and show its exhaustive coverage;
4. map the application with blind / greedy / hybrid BISM and compare costs;
5. extract a universal defect-free k x k subarray (the Fig. 6b flow) and
   place the application there with zero additional test sessions.

Run:  python examples/fault_tolerant_mapping.py
"""

import random

from repro.boolean import BooleanFunction
from repro.reliability import (
    STRATEGIES,
    as_program,
    greedy_clean_subarray,
    mapping_is_valid,
    random_defect_map,
    run_bisd,
    run_bist,
)
from repro.synthesis import synthesize_diode


def main() -> None:
    rng = random.Random(691178)  # the NANOxCOMP project number

    # 1. the application: a full-adder carry on a diode plane
    f = BooleanFunction.from_expression(
        "x1 x2 + x1 x3 + x2 x3", label="fa_carry")
    diode = synthesize_diode(f.on)
    program = as_program([
        [diode.connections[r][c] for c in range(len(diode.literals))]
        for r in range(diode.num_rows)
    ])
    print(f"application: {f.label}, program {len(program)} x {len(program[0])}")

    # 2. a defective chip
    defect_map = random_defect_map(16, 16, density=0.12, rng=rng)
    print(f"crossbar   : 16 x 16 with {defect_map.num_defects} defects "
          f"(density {defect_map.density:.2f})")
    print(defect_map.render())
    print()

    # 3. BIST / BISD characterisation of this fabric size
    bist = run_bist(16, 16)
    print(f"BIST       : {bist.num_configurations} configurations, "
          f"{bist.num_vectors} vectors, coverage {bist.coverage:.0%} "
          f"of {bist.num_faults} faults "
          f"(naive: {bist.naive_configurations} configurations)")
    bisd = run_bisd(8, 8)
    print(f"BISD (8x8) : {bisd.num_configurations} configurations for "
          f"{bisd.num_resources} resources "
          f"(= ceil(log2) + 2), accuracy {bisd.accuracy:.0%}")
    print()

    # 4. self-mapping strategies
    print("BISM strategies (one run each):")
    for name, strategy in STRATEGIES.items():
        result = strategy(program, defect_map, random.Random(7))
        status = "ok" if result.success else "FAILED"
        print(f"  {name:7s}: {status}, {result.bist_sessions} BIST + "
              f"{result.bisd_sessions} BISD sessions")
        if result.success:
            assert mapping_is_valid(program, result.mapping, defect_map)
    print()

    # 5. the defect-unaware flow
    clean = greedy_clean_subarray(defect_map)
    assert defect_map.is_clean(clean.rows, clean.cols)
    print(f"defect-unaware flow: recovered a clean "
          f"{len(clean.rows)} x {len(clean.cols)} region (k = {clean.k})")
    print(f"  stored map: {16 * 16} crosspoint states -> "
          f"{(16 - len(clean.rows)) + (16 - len(clean.cols)) + 2} words "
          f"(excluded-line lists)")
    print("  any application fitting the clean region now maps with zero "
          "test sessions")


if __name__ == "__main__":
    main()
