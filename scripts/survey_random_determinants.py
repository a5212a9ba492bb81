#!/usr/bin/env python3
"""Survey the <S^2> decomposition over random general-spinor determinants.

Samples Haar-random determinants, tabulates how the four contributions to
<S^2> distribute, and reports how much of the z-noncollinearity an optimal
quantization axis would remove.
"""

import argparse

import numpy as np

from spincol import analyze_collinearity, build_overlap_blocks, decompose_s2, gen_random_gchf
from spincol.cli import _int_at_least


def run_survey(args: argparse.Namespace) -> None:
    rows = []
    for k in range(args.n):
        det = gen_random_gchf(args.m, args.ne, args.seed + k)
        blocks = build_overlap_blocks(det)
        d = decompose_s2(blocks)
        col = analyze_collinearity(blocks).col
        rows.append(
            (d.rohf_term, d.z_noncollinearity, d.spin_contamination,
             d.xy_perpendicularity, d.total, col)
        )
    data = np.array(rows)
    names = ("rohf_term", "z_noncollinearity", "spin_contamination",
             "xy_perpendicularity", "<S^2>", "col")

    print(f"{args.n} random determinants, "
          f"M={args.m}, Ne={args.ne}, seeds {args.seed}..{args.seed + args.n - 1}")
    print(f"{'quantity':<20} {'mean':>10} {'min':>10} {'max':>10}")
    for name, column in zip(names, data.T):
        print(f"{name:<20} {column.mean():>10.6f} {column.min():>10.6f} {column.max():>10.6f}")

    reduction = data[:, 1] - data[:, 5]
    print(f"\nz-noncollinearity removable by tilting the axis: "
          f"mean {reduction.mean():.6f}, max {reduction.max():.6f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_int_at_least(1), default=200, help="number of determinants")
    parser.add_argument("--m", type=_int_at_least(1), default=3, help="spatial basis size")
    parser.add_argument("--ne", type=_int_at_least(1), default=3, help="electron count")
    parser.add_argument("--seed", type=_int_at_least(0), default=0, help="base seed")
    run_survey(parser.parse_args())


if __name__ == "__main__":
    main()
