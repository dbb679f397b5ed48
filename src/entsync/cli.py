"""Command-line front end: simulate scenarios, analyze tag files, predict.

Exit codes: 0 success, 1 configuration error, 2 reconstruction failure or a usage
error from argparse (an unknown flag, a bad choice or a value of the wrong type),
3 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from .channel import ChannelConfig, Direction, predicted_offset_error_ps
from .correlation import SyncAnalysisParams
from .errors import ConfigError, ReconstructionError, StreamFormatError
from .scenario import (
    TimingScenario,
    analyze_files,
    parse_config,
    read_config,
    run_scenario,
    run_tomo_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entsync",
        description="Entanglement-based clock synchronization simulator and analyzer.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="Run a timing scenario and write all artifacts.")
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--config", required=True, help="Scenario JSON path.")
    sim.add_argument("--out", required=True, help="Output directory.")
    sim.add_argument("--seed", type=int, default=None, help="Override the config seed.")
    sim.add_argument(
        "--tag-format", choices=["binary", "csv"], default="binary",
        help="Time-tag file format to write.",
    )

    ana = sub.add_parser("analyze", help="Analyze recorded time-tag files.")
    ana.set_defaults(handler=_cmd_analyze)
    ana.add_argument("--alice", required=True, help="First party's tag file (.tt or .csv).")
    ana.add_argument("--bob", required=True, help="Second party's tag file (.tt or .csv).")
    ana.add_argument("--out", required=True)
    ana.add_argument("--block-s", type=float, default=TimingScenario.block_s)
    ana.add_argument("--n-blocks", type=int, default=None)
    hints = typing.get_type_hints(SyncAnalysisParams)
    for f in dataclasses.fields(SyncAnalysisParams):
        ana.add_argument("--" + f.name.replace("_", "-"), type=hints[f.name], default=f.default)

    tomo = sub.add_parser("tomo", help="Run a tomography comparison scenario.")
    tomo.set_defaults(handler=_cmd_tomo)
    tomo.add_argument("--config", required=True)
    tomo.add_argument("--out", required=True)
    tomo.add_argument("--seed", type=int, default=None)

    pred = sub.add_parser(
        "predict", help="Print the analytic offset error for a channel config."
    )
    pred.set_defaults(handler=_cmd_predict)
    pred.add_argument("--config", required=True, help="Channel JSON or scenario JSON.")
    return parser


def _cmd_simulate(args) -> int:
    summary = run_scenario(args.config, args.out, seed=args.seed, tag_format=args.tag_format)
    print(f"wrote {summary['n_estimates']}/{summary['n_blocks']} block estimates to {args.out}")
    first = summary["segments"][0]
    if "mean_delta_ps" in first:
        print(
            f"first segment offset {first['mean_delta_ps']:.1f} ps, "
            f"round trip {first['mean_round_trip_ps']:.1f} ps"
        )
    if summary["measured_shift_ps"] is not None:
        print(
            f"measured offset shift {summary['measured_shift_ps']:.1f} ps "
            f"(predicted {summary['predicted_shift_ps']:.1f} ps, "
            f"sigma {summary['shift_sigma_ps']:.2f} ps)"
        )
    return 0


def _cmd_analyze(args) -> int:
    params = SyncAnalysisParams(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(SyncAnalysisParams)}
    )
    estimates = analyze_files(
        args.alice,
        args.bob,
        args.out,
        params,
        block_s=args.block_s,
        n_blocks=args.n_blocks,
    )
    print(f"wrote {len(estimates)} block estimates to {args.out}")
    return 0


def _cmd_tomo(args) -> int:
    summary = run_tomo_scenario(args.config, args.out, seed=args.seed)
    print(
        f"fidelity before/after: {summary['fidelity_before_vs_after']:.4f}, "
        f"Monte Carlo mean {summary['fidelity_mc_mean']:.4f} "
        f"[{summary['fidelity_mc_ci95_low']:.4f}, {summary['fidelity_mc_ci95_high']:.4f}]"
    )
    return 0


def _cmd_predict(args) -> int:
    payload = read_config(args.config)
    cfg = parse_config(ChannelConfig, payload.get("channel", payload), "channel")
    print(
        json.dumps(
            {
                "predicted_offset_error_ps": predicted_offset_error_ps(cfg),
                "delay_ab_ps": cfg.delay_ps(Direction.A_TO_B),
                "delay_ba_ps": cfg.delay_ps(Direction.B_TO_A),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A run the models accept can still need more memory than the machine has.
        print(f"config error: not enough memory for this run: {exc}", file=sys.stderr)
        return 1
    except (StreamFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ReconstructionError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
