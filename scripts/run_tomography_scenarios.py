#!/usr/bin/env python3
"""Run the bundled tomography comparisons and print fidelity distributions.

tomo_none samples the same singlet twice (pipeline noise floor). tomo_full
sends one photon through the half-turn circulator model with all phases
included; the distribution stays at 1, so the rerouting is invisible.
tomo_naive applies the geometric-phase-only model at theta = pi/3, which
would be detectable if it were right.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from entsync.scenario import run_tomo_scenario

SCENARIOS = ["tomo_none", "tomo_full", "tomo_naive"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/tomo", help="Output root directory.")
    parser.add_argument("--scenarios", nargs="*", default=SCENARIOS)
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[1]
    for name in args.scenarios:
        config = root / "scenarios" / f"{name}.json"
        out_dir = Path(args.out) / name
        summary = run_tomo_scenario(config, out_dir)
        print(
            f"{name}: F(before, after) = {summary['fidelity_before_vs_after']:.4f}, "
            f"Monte Carlo mean {summary['fidelity_mc_mean']:.4f} "
            f"[{summary['fidelity_mc_ci95_low']:.4f}, {summary['fidelity_mc_ci95_high']:.4f}]"
        )


if __name__ == "__main__":
    main()
