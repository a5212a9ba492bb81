#!/usr/bin/env python3
"""Tilt the spin quantization axis of one determinant to its optimal direction.

Prints the <S^2> decomposition before and after rotating the spin frame so
the optimal collinearity axis becomes z: the z-noncollinearity drops to its
minimum (col) and <S^2> stays invariant, while the other three terms
redistribute with the new frame.
"""

import argparse
import sys

from spincol import (
    SpincolError,
    align_to_axis,
    analyze_collinearity,
    build_overlap_blocks,
    decompose_s2,
    gen_random_gchf,
    load_determinant,
)
from spincol.cli import _int_at_least


def _print_decomposition(title, d):
    print(title)
    for name, value in (
        ("rohf_term", d.rohf_term),
        ("z_noncollinearity", d.z_noncollinearity),
        ("spin_contamination", d.spin_contamination),
        ("xy_perpendicularity", d.xy_perpendicularity),
        ("total <S^2>", d.total),
    ):
        print(f"  {name:<20} {value:+.6f}")


def run_tilt(args: argparse.Namespace) -> None:
    if args.input:
        det = load_determinant(args.input)
        print(f"determinant: {args.input}")
    else:
        det = gen_random_gchf(args.m, args.ne, args.seed)
        print(f"determinant: random GCHF (M={args.m}, Ne={args.ne}, seed={args.seed})")

    blocks = build_overlap_blocks(det)
    result = analyze_collinearity(blocks)
    _print_decomposition("\nbefore tilting (z axis as given):", decompose_s2(blocks))
    ax = result.optimal_axis
    print(f"\noptimal axis: ({ax[0]:+.6f}, {ax[1]:+.6f}, {ax[2]:+.6f}), col = {result.col:+.6f}")

    tilted = align_to_axis(det, result.optimal_axis)
    _print_decomposition("\nafter tilting (optimal axis as z):", decompose_s2(build_overlap_blocks(tilted)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", help="determinant file; omit to use a random one")
    parser.add_argument("--m", type=_int_at_least(1), default=3, help="spatial basis size (random mode)")
    parser.add_argument("--ne", type=_int_at_least(1), default=3, help="electron count (random mode)")
    parser.add_argument("--seed", type=_int_at_least(0), default=7, help="seed (random mode)")
    args = parser.parse_args()
    try:
        run_tilt(args)
    except SpincolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
