"""Scenario configs and end-to-end runners for timing and tomography studies.

A timing scenario simulates two pair sources, the (possibly rescheduled)
channel, four detectors and two clocks, then runs the block-wise offset
analysis. A tomography scenario forward-models the 36-setting measurement for
a chosen attack model and pushes counting noise through the reconstruction.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import secrets
import shutil
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .channel import ChannelConfig, Direction, apply_channel, predicted_offset_error_ps
from .correlation import (
    SyncAnalysisParams,
    SyncEstimate,
    analyze_block,
    complete_blocks,
    write_estimates_json,
    write_histogram_csv,
)
from .errors import ConfigError
from .polarization import (
    FaradayParams,
    TwoQubitState,
    apply_attack_full,
    apply_attack_naive_geometric,
    bell_psi_minus,
)
from .timetags import (
    CH_ALICE_LOCAL,
    CH_ALICE_REMOTE,
    CH_BOB_LOCAL,
    CH_BOB_REMOTE,
    MAX_JITTER_SIGMA_PS,
    MAX_TIMESTAMP_PS,
    PS_PER_S,
    ClockModel,
    DetectorModel,
    PairSourceModel,
    TimeTagStream,
    apply_clock,
    apply_detector,
    arm_detector,
    generate_pairs,
    merge_streams,
    read_tags,
    write_tags_binary,
    write_tags_csv,
)
from .tomography import (
    DensityMatrix,
    density_to_json,
    depolarize,
    expected_counts,
    fidelity,
    mle_reconstruct,
    monte_carlo_fidelity,
    sample_counts,
    write_counts_csv,
)

# Detector field of ``Detectors`` -> (channel label, random stream index, the
# ``TimingScenario`` source field whose photons it detects).
_DETECTORS = {
    "alice_local": (CH_ALICE_LOCAL, rngmod.DET_ALICE_LOCAL, "alice_source"),
    "alice_remote": (CH_ALICE_REMOTE, rngmod.DET_ALICE_REMOTE, "bob_source"),
    "bob_local": (CH_BOB_LOCAL, rngmod.DET_BOB_LOCAL, "bob_source"),
    "bob_remote": (CH_BOB_REMOTE, rngmod.DET_BOB_REMOTE, "alice_source"),
}


# Most analysis blocks in one run: a day of one-second blocks. Each block
# writes its own histogram file, so this bounds how many files a run writes.
_MAX_BLOCKS = 100_000
# Room left for jitter on both sides of the ideal event times when their span
# and a clock's readings are checked: 64 times the largest jitter sigma
# allowed (1 s), which no Gaussian draw of a source or detector jitter reaches.
_JITTER_MARGIN_PS = 64 * int(MAX_JITTER_SIGMA_PS)


def _block_ps(block_s: float) -> int:
    """An analysis block's length in integer ps, which must lie in [1, 2**62)."""
    if not math.isfinite(block_s) or block_s <= 0:
        raise ConfigError("block_s must be finite and > 0")
    scaled = block_s * PS_PER_S
    block_ps = round(scaled) if scaled < MAX_TIMESTAMP_PS else MAX_TIMESTAMP_PS
    if not 1 <= block_ps < MAX_TIMESTAMP_PS:
        raise ConfigError("block_s must round to at least 1 ps and less than 2**62 ps")
    return block_ps


def _check_blocks(block_ps: int, n_blocks: int, params: SyncAnalysisParams):
    """Each block must span the g2 window, and a run may have 0 to _MAX_BLOCKS of them."""
    window_ps = params.tau_max_ps - params.tau_min_ps
    if block_ps < window_ps:
        raise ConfigError(f"block_s must be at least the g2 window, {window_ps} ps")
    if n_blocks < 0:
        raise ConfigError("n_blocks must be >= 0")
    if n_blocks > _MAX_BLOCKS:
        raise ConfigError(
            f"{n_blocks} blocks of block_s in this run; at most {_MAX_BLOCKS} allowed"
        )


@dataclass(frozen=True)
class ScheduleEntry:
    time_s: float
    channel: ChannelConfig


@dataclass(frozen=True)
class Detectors:
    """The four detectors: each party's local arm and the arm from the far party."""

    alice_local: DetectorModel = DetectorModel()
    alice_remote: DetectorModel = DetectorModel()
    bob_local: DetectorModel = DetectorModel()
    bob_remote: DetectorModel = DetectorModel()


@dataclass(frozen=True)
class TimingScenario:
    duration_s: float
    seed: int
    alice_source: PairSourceModel
    bob_source: PairSourceModel
    channel: ChannelConfig
    alice_clock: ClockModel = ClockModel()
    bob_clock: ClockModel = ClockModel()
    schedule: tuple[ScheduleEntry, ...] = ()
    detectors: Detectors = Detectors()
    block_s: float = 40.0
    analysis: SyncAnalysisParams = SyncAnalysisParams()

    def __post_init__(self):
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ConfigError("duration_s must be finite and > 0")
        if not self.duration_s * PS_PER_S < MAX_TIMESTAMP_PS:
            raise ConfigError("duration_s must be < 2**62 ps")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        _check_blocks(_block_ps(self.block_s), self.n_blocks(), self.analysis)
        previous = 0.0
        for i, entry in enumerate(self.schedule):
            if not 0.0 < entry.time_s < self.duration_s:
                raise ConfigError(f"schedule[{i}].time_s must lie inside (0, duration_s)")
            if entry.time_s <= previous:
                raise ConfigError(f"schedule[{i}].time_s must be strictly increasing")
            previous = entry.time_s
        for key, (_, _, source) in _DETECTORS.items():
            try:
                arm_detector(getattr(self, source), getattr(self.detectors, key))
            except ConfigError:
                raise ConfigError(
                    f"detectors.{key}.jitter_sigma_ps and {source}.emission_jitter_sigma_ps"
                    " must combine in quadrature to at most 1e12"
                ) from None
        # Every ideal event time lies inside this span, and a clock maps time
        # forward, so the readings of its two ends bound all of them.
        latest_ps = round(self.duration_s * PS_PER_S) + max(
            cfg.delay_rounded_ps(d) for _, _, cfg in self.channel_segments() for d in Direction
        )
        ends = (-_JITTER_MARGIN_PS, latest_ps + _JITTER_MARGIN_PS)
        if not ends[1] < MAX_TIMESTAMP_PS:
            raise ConfigError("duration_s + the longest delay + 64 s must be < 2**62 ps")
        for name in ("alice_clock", "bob_clock"):
            if not all(getattr(self, name).reads_in_range(t_ps) for t_ps in ends):
                raise ConfigError(
                    f"{name} must read below 2**62 ps in magnitude from -64 s"
                    " to duration_s + the longest delay + 64 s"
                )

    def n_blocks(self) -> int:
        """Complete blocks [k * block_ps, (k + 1) * block_ps) inside the configured duration."""
        return round(self.duration_s * PS_PER_S) // _block_ps(self.block_s)

    def channel_segments(self) -> list[tuple[float, float, ChannelConfig]]:
        """(start_s, end_s, config) pieces covering [0, duration_s)."""
        starts = [0.0] + [e.time_s for e in self.schedule]
        configs = [self.channel] + [e.channel for e in self.schedule]
        ends = starts[1:] + [self.duration_s]
        return list(zip(starts, ends, configs))


# --- config loading --------------------------------------------------------


def read_config(path) -> dict:
    """The JSON object in a UTF-8 config file; any other content is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is an integer
        # past Python's digit limit; nesting past the recursion limit is not.
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def parse_config(cls, data, path: str = ""):
    """Build the dataclass ``cls`` from a JSON object, field by field.

    Each value is checked against the field's type: ``float`` takes any
    number, ``int`` an integer (integer-valued floats included), a nested
    dataclass an object and ``tuple[X, ...]`` a list. A field is required
    exactly when the dataclass gives it no default, and keys that are not
    fields are rejected. The dataclass checks its own values when built;
    errors name the field by its path, e.g.
    ``schedule[1].channel.base_length_m``. ``read_config`` checks the top level.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"field {path} must be an object")
    prefix = f"{path}." if path else ""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown field {prefix}{key}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name in data:
            values[f.name] = _field_value(hints[f.name], data[f.name], prefix + f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing field {prefix}{f.name}")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _field_value(hint, value, path: str):
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field {path} must be a number")
        return float(value)
    if hint is int:
        integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not integral:
            raise ConfigError(f"field {path} must be an integer")
        return int(value)
    if dataclasses.is_dataclass(hint):
        return parse_config(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field {path} must be a list")
        return tuple(_field_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    return value


def load_timing_scenario(path) -> TimingScenario:
    return parse_config(TimingScenario, read_config(path))


# --- timing simulation ------------------------------------------------------


def simulate_timing(sc: TimingScenario) -> tuple[TimeTagStream, TimeTagStream]:
    """Produce the two parties' detection records for a timing scenario.

    Each source's emission times feed both of its arms: the local arm
    directly, the remote arm after the channel. Each arm's detector draws the
    source's heralding and emission jitter with its own (``arm_detector``), so
    the channel segment that serves an event is chosen from its un-jittered
    emission time; this differs from jittering at the source only for events
    within a few emission sigma of a ``schedule`` change. Each arm is detected
    before the next is made, and Alice's record is built before Bob's, so at
    most one party's record, both sources' emission times and a few arms are
    alive at once.
    """
    schedule = [(round(start * PS_PER_S), cfg) for start, _, cfg in sc.channel_segments()]

    def detect(key: str, timestamps: np.ndarray) -> tuple[np.ndarray, int]:
        channel, stream_index, source = _DETECTORS[key]
        det = arm_detector(getattr(sc, source), getattr(sc.detectors, key))
        seed = rngmod.child_seed(sc.seed, stream_index)
        return apply_detector(timestamps, det, sc.duration_s, seed), channel

    def record(arms: list, clock: ClockModel) -> TimeTagStream:
        """A party's record from its detected arms; the list is emptied once they are merged."""
        timestamps, channels = merge_streams(*arms)
        arms.clear()
        return apply_clock(timestamps, channels, clock)

    a_times = generate_pairs(
        sc.alice_source, sc.duration_s, rngmod.child_seed(sc.seed, rngmod.ALICE_SOURCE)
    )
    arms = [detect("alice_local", a_times)]
    b_times = generate_pairs(
        sc.bob_source, sc.duration_s, rngmod.child_seed(sc.seed, rngmod.BOB_SOURCE)
    )
    arms.append(detect("alice_remote", apply_channel(b_times, Direction.B_TO_A, schedule)))
    alice = record(arms, sc.alice_clock)
    arms = [detect("bob_local", b_times)]
    del b_times
    # The last use of the send times, so they are replaced by their arrivals and freed first.
    a_times = apply_channel(a_times, Direction.A_TO_B, schedule)
    arms.append(detect("bob_remote", a_times))
    del a_times
    bob = record(arms, sc.bob_clock)
    return alice, bob


def analyze_blocks(
    alice: TimeTagStream,
    bob: TimeTagStream,
    block_s: float,
    params: SyncAnalysisParams,
    out_dir: Path,
    n_blocks: int | None = None,
) -> list[SyncEstimate]:
    """Analyze consecutive blocks of two records; failed blocks are index gaps.

    Each block's histogram is written to ``out_dir`` as ``g2_block_NNN.csv``,
    then the estimates as ``estimates.json``. Without ``n_blocks`` only the
    blocks the recorded data covers are analyzed.
    """
    block_ps = _block_ps(block_s)
    a_ts, b_ts = alice.timestamps_ps, bob.timestamps_ps
    if n_blocks is None:
        n_blocks = complete_blocks(a_ts, b_ts, block_ps)
    _check_blocks(block_ps, n_blocks, params)
    estimates = []
    for k in range(n_blocks):
        hist, est = analyze_block(a_ts, b_ts, k, block_ps, params)
        write_histogram_csv(hist, out_dir / f"g2_block_{k:03d}.csv")
        if est is not None:
            estimates.append(est)
    write_estimates_json(estimates, out_dir / "estimates.json")
    return estimates


def _group_stats(estimates: list[SyncEstimate], round_trip: bool = False) -> tuple[float, float]:
    """Mean offset, or round trip (at twice the offset's sigma), and a conservative error."""
    n = len(estimates)
    values = [e.round_trip_ps if round_trip else e.delta_ps for e in estimates]
    scale = 2.0 if round_trip else 1.0
    sigmas = [scale * e.delta_sigma_ps for e in estimates]
    mean = float(np.mean(values))
    propagated = math.sqrt(sum(s * s for s in sigmas)) / n
    empirical = float(np.std(values, ddof=1)) / math.sqrt(n) if n >= 2 else 0.0
    return mean, max(propagated, empirical)


def build_timing_summary(sc: TimingScenario, estimates: list[SyncEstimate]) -> dict:
    block_ps = _block_ps(sc.block_s)

    def within(lo_s: float, hi_s: float) -> list[SyncEstimate]:
        """Estimates whose block lies inside [lo_s, hi_s] on the ps grid the channel switches on."""
        lo_ps, hi_ps = round(lo_s * PS_PER_S), round(hi_s * PS_PER_S)
        return [
            e
            for e in estimates
            if lo_ps <= e.block_index * block_ps and (e.block_index + 1) * block_ps <= hi_ps
        ]

    segments = [
        (start_s, end_s, cfg, predicted_offset_error_ps(cfg))
        for start_s, end_s, cfg in sc.channel_segments()
    ]
    segments_out = []
    for start_s, end_s, cfg, predicted in segments:
        members = within(start_s, end_s)
        seg = {
            "start_s": start_s,
            "end_s": end_s,
            "channel": dataclasses.asdict(cfg),
            "predicted_offset_error_ps": predicted,
            "n_blocks_used": len(members),
        }
        if members:
            seg["mean_delta_ps"], seg["sem_delta_ps"] = _group_stats(members)
            seg["mean_round_trip_ps"], seg["sem_round_trip_ps"] = _group_stats(members, True)
        segments_out.append(seg)

    _, _, initial, predicted_initial = segments[0]
    _, _, final, predicted_final = segments[-1]
    # Compare blocks before the first change of the predicted offset error
    # with blocks after the last such change.
    change_times = [cur[0] for prev, cur in zip(segments, segments[1:]) if cur[3] != prev[3]]
    measured_shift = None
    shift_sigma = None
    if change_times:
        before = within(0.0, change_times[0])
        after = within(change_times[-1], sc.duration_s)
        if before and after:
            (mean_b, sem_b), (mean_a, sem_a) = _group_stats(before), _group_stats(after)
            measured_shift = mean_a - mean_b
            shift_sigma = math.hypot(sem_b, sem_a)

    return {
        "duration_s": sc.duration_s,
        "seed": sc.seed,
        "block_s": sc.block_s,
        "n_blocks": sc.n_blocks(),
        "n_estimates": len(estimates),
        "initial_channel": dataclasses.asdict(initial),
        "final_channel": dataclasses.asdict(final),
        "predicted_offset_error_initial_ps": predicted_initial,
        "predicted_offset_error_final_ps": predicted_final,
        "predicted_shift_ps": predicted_final - predicted_initial,
        "measured_shift_ps": measured_shift,
        "shift_sigma_ps": shift_sigma,
        "segments": segments_out,
    }


def _write_json(payload: dict, path):
    with open(path, "wb") as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


@contextlib.contextmanager
def _publish(out_dir):
    """Yield a new private directory beside ``out_dir``, then rename it to ``out_dir``.

    A run's directory thus appears whole or not at all. ``rename`` replaces only
    an empty directory, so a non-empty ``out_dir``, or a file there, is an
    OSError that names it and is left as it was. On any exception, Ctrl-C
    included, only the private directory is removed. ``out_dir``'s parents are
    made as needed; they are not part of the run.
    """
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    # mkdir, not tempfile.mkdtemp, so that the directory gets the umask's mode.
    private = out.parent / f".{out.name}.{secrets.token_hex(8)}"
    private.mkdir()
    try:
        yield private
        try:
            os.rename(private, out)
        except OSError as exc:
            reason = f"{exc.strerror}; a run writes only to a new or empty directory"
            raise OSError(exc.errno, reason, str(out)) from None
    except BaseException:
        shutil.rmtree(private)
        raise


def run_scenario(
    config_path,
    out_dir,
    seed: int | None = None,
    tag_format: str = "binary",
) -> dict:
    """Simulate a timing scenario and write tags, histograms, and estimates."""
    sc = load_timing_scenario(config_path)
    if seed is not None:
        sc = dataclasses.replace(sc, seed=seed)
    alice, bob = simulate_timing(sc)
    with _publish(out_dir) as out:
        if tag_format == "csv":
            write_tags_csv(alice, out / "alice.csv")
            write_tags_csv(bob, out / "bob.csv")
        else:
            write_tags_binary(alice, out / "alice.tt")
            write_tags_binary(bob, out / "bob.tt")

        estimates = analyze_blocks(alice, bob, sc.block_s, sc.analysis, out, sc.n_blocks())
        summary = build_timing_summary(sc, estimates)
        _write_json(summary, out / "summary.json")
    return summary


def analyze_files(
    alice_path,
    bob_path,
    out_dir,
    params: SyncAnalysisParams,
    block_s: float,
    n_blocks: int | None = None,
) -> list[SyncEstimate]:
    """Run the offline analysis half on previously recorded tag files.

    ``block_s`` and a given ``n_blocks`` are checked before either file is read.
    """
    _check_blocks(_block_ps(block_s), n_blocks or 0, params)
    alice = read_tags(alice_path)
    bob = read_tags(bob_path)
    with _publish(out_dir) as out:
        return analyze_blocks(alice, bob, block_s, params, out, n_blocks)


# --- tomography scenario ----------------------------------------------------


# Largest mean count per setting: numpy's Poisson draw refuses means above ~9.2e18.
_MAX_MEAN_COUNT = 1e18


@dataclass(frozen=True)
class TomoScenario:
    seed: int
    # The source state is fixed; a config may only name it.
    state: str = "psi_minus"
    attack: str = "none"
    theta_rad: float = 0.0
    faraday: FaradayParams = FaradayParams()
    counts_per_setting: float = 100_000.0
    accidentals_per_setting: float = 0.0
    depolarization: float = 0.0
    reps: int = 100

    def __post_init__(self):
        if self.state != "psi_minus":
            raise ConfigError("state must be 'psi_minus'")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.attack not in ("none", "full", "naive"):
            raise ConfigError("attack must be one of 'none', 'full', 'naive'")
        if self.attack == "naive" and not 0.0 <= self.theta_rad <= math.pi:
            raise ConfigError("theta_rad must be in [0, pi] for the naive attack")
        if self.attack == "full":
            self.faraday.require_half_turn("faraday.rotation_VBd_rad")
        if not math.isfinite(self.counts_per_setting) or self.counts_per_setting <= 0:
            raise ConfigError("counts_per_setting must be finite and > 0")
        if not math.isfinite(self.accidentals_per_setting) or self.accidentals_per_setting < 0:
            raise ConfigError("accidentals_per_setting must be finite and >= 0")
        if self.counts_per_setting + self.accidentals_per_setting > _MAX_MEAN_COUNT:
            raise ConfigError("counts_per_setting + accidentals_per_setting must be <= 1e18")
        if not 0.0 <= self.depolarization <= 1.0:
            raise ConfigError("depolarization must be in [0, 1]")
        if self.reps < 2:
            raise ConfigError("reps must be >= 2")


def load_tomo_scenario(path) -> TomoScenario:
    return parse_config(TomoScenario, read_config(path))


def attacked_state(sc: TomoScenario) -> TwoQubitState:
    base = bell_psi_minus()
    if sc.attack == "none":
        return base
    if sc.attack == "full":
        return apply_attack_full(base, sc.faraday)
    return apply_attack_naive_geometric(base, sc.theta_rad)


def run_tomo_scenario(config_path, out_dir, seed: int | None = None) -> dict:
    """Forward-model, sample, reconstruct, and error-propagate one comparison."""
    sc = load_tomo_scenario(config_path)
    if seed is not None:
        sc = dataclasses.replace(sc, seed=seed)

    target = DensityMatrix.from_pure(bell_psi_minus().amplitudes)
    states = {"before": target, "after": DensityMatrix.from_pure(attacked_state(sc).amplitudes)}
    acc = sc.accidentals_per_setting
    counts, rho_hat = {}, {}
    for which, stream in (("before", rngmod.TOMO_BEFORE), ("after", rngmod.TOMO_AFTER)):
        rho = depolarize(states[which], sc.depolarization)
        seed = rngmod.child_seed(sc.seed, stream)
        counts[which] = sample_counts(expected_counts(rho, sc.counts_per_setting, acc), seed, acc)
        rho_hat[which] = mle_reconstruct(counts[which])
    distribution = monte_carlo_fidelity(
        counts["before"], counts["after"], sc.reps, sc.seed, rho_hat["before"], rho_hat["after"]
    )

    summary = {
        "config": dataclasses.asdict(sc),
        "fidelity_before_vs_target": fidelity(rho_hat["before"], target),
        "fidelity_after_vs_target": fidelity(rho_hat["after"], target),
        "fidelity_before_vs_after": fidelity(rho_hat["before"], rho_hat["after"]),
        "fidelity_mc_mean": distribution.mean,
        "fidelity_mc_ci95_low": distribution.ci95_low,
        "fidelity_mc_ci95_high": distribution.ci95_high,
        "n_mc_samples": int(distribution.samples.size),
        "n_mc_failed": sc.reps - int(distribution.samples.size),
    }
    with _publish(out_dir) as out:
        for which in ("before", "after"):
            write_counts_csv(counts[which], out / f"counts_{which}.csv")
            _write_json(density_to_json(rho_hat[which]), out / f"rho_{which}.json")
        _write_json(distribution.to_json(), out / "fidelity_distribution.json")
        _write_json(summary, out / "summary.json")
    return summary
