#!/usr/bin/env python3
"""Run the bundled timing scenarios and print the headline numbers.

fig2a/fig2b/fig2c are single-block correlation snapshots: a symmetric
baseline, a symmetric 5 m extension of both directions, and the full 10 m
added to one direction only. fig3 is the staged run that switches the channel
mid-acquisition and tracks the offset estimate block by block.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from entsync.scenario import run_scenario

SCENARIOS = ["fig2a", "fig2b", "fig2c", "fig3"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/timing", help="Output root directory.")
    parser.add_argument("--scenarios", nargs="*", default=SCENARIOS)
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[1]
    for name in args.scenarios:
        config = root / "scenarios" / f"{name}.json"
        out_dir = Path(args.out) / name
        summary = run_scenario(config, out_dir)
        line = f"{name}: {summary['n_estimates']}/{summary['n_blocks']} blocks"
        seg0 = summary["segments"][0]
        if "mean_delta_ps" in seg0:
            line += (
                f", first segment delta {seg0['mean_delta_ps']:.1f} ps"
                f", round trip {seg0['mean_round_trip_ps']:.1f} ps"
            )
        if summary["measured_shift_ps"] is not None:
            line += (
                f", offset shift {summary['measured_shift_ps']:.1f} ps"
                f" (predicted {summary['predicted_shift_ps']:.1f} ps)"
            )
        print(line)


if __name__ == "__main__":
    main()
