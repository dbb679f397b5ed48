import dataclasses
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from entsync import cli, scenario, tomography
from entsync.channel import ChannelConfig
from entsync.cli import main as cli_main
from entsync.correlation import SyncAnalysisParams, SyncEstimate, complete_blocks
from entsync.errors import ConfigError, ReconstructionError
from entsync.polarization import FaradayParams
from entsync.scenario import (
    Detectors,
    ScheduleEntry,
    TimingScenario,
    TomoScenario,
    analyze_files,
    build_timing_summary,
    load_timing_scenario,
    load_tomo_scenario,
    parse_config,
    run_scenario,
    run_tomo_scenario,
    simulate_timing,
)
from entsync.timetags import (
    CH_ALICE_LOCAL,
    CH_ALICE_REMOTE,
    CH_BOB_LOCAL,
    CH_BOB_REMOTE,
    PS_PER_S,
    ClockModel,
    DetectorModel,
    PairSourceModel,
    TimeTagStream,
    read_tags_binary,
    write_tags_binary,
    write_tags_csv,
)


BLOCK_PS_RANGE = r"block_s must round to at least 1 ps and less than 2\*\*62 ps"
BLOCK_IN_WINDOW = r"block_s must be at least the g2 window, 2000000 ps"
CLOCK_RANGE = (
    r"{} must read below 2\*\*62 ps in magnitude from -64 s"
    r" to duration_s \+ the longest delay \+ 64 s"
)
TOMO_MEAN_LIMIT = r"counts_per_setting \+ accidentals_per_setting must be <= 1e18"

# Analysis windows whose edges, added to a timestamp, would leave int64.
WINDOW_PAST_INT64 = {
    "huge_bin": (
        {"bin_width_ps": 10**20},
        "bin_width_ps must end the last bin at or below 2**62 ps",
    ),
    "int64_max_bin": (
        {"bin_width_ps": 2**63 - 1},
        "bin_width_ps must end the last bin at or below 2**62 ps",
    ),
    "window_near_int64_max": (
        {"tau_min_ps": 2**63 - 808, "tau_max_ps": 2**63 - 1},
        "tau_max_ps must be <= 2**62",
    ),
    "window_below_range": ({"tau_min_ps": -(2**62) - 1}, "tau_min_ps must be >= -2**62"),
}


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2))
    return path


def dir_digest(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def smoke_run(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_run")
    summary = run_scenario(scenario_dir / "smoke.json", out)
    return out, summary


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c", "fig3", "smoke"])
    def test_timing_config_roundtrip(self, scenario_dir, name):
        sc = load_timing_scenario(scenario_dir / f"{name}.json")
        assert parse_config(TimingScenario, dataclasses.asdict(sc)) == sc

    @pytest.mark.parametrize("name", ["tomo_none", "tomo_full", "tomo_naive"])
    def test_tomo_config_roundtrip(self, scenario_dir, name):
        sc = load_tomo_scenario(scenario_dir / f"{name}.json")
        assert parse_config(TomoScenario, dataclasses.asdict(sc)) == sc


class TestConfigValidation:
    def base_config(self):
        return {
            "duration_s": 10.0,
            "seed": 1,
            "alice_source": {"pair_rate_hz": 100.0},
            "bob_source": {"pair_rate_hz": 100.0},
            "channel": {"base_length_m": 1.0},
        }

    def test_minimal_config_accepted(self):
        sc = parse_config(TimingScenario, self.base_config())
        assert sc.channel.group_index == pytest.approx(1.5134)

    def test_bad_group_index_names_field(self):
        cfg = self.base_config()
        cfg["channel"]["group_index"] = 0.5
        with pytest.raises(ConfigError, match="channel.group_index"):
            parse_config(TimingScenario, cfg)

    def test_missing_source_names_field(self):
        cfg = self.base_config()
        del cfg["bob_source"]
        with pytest.raises(ConfigError, match="bob_source"):
            parse_config(TimingScenario, cfg)

    def test_schedule_must_increase(self):
        cfg = self.base_config()
        cfg["schedule"] = [
            {"time_s": 5.0, "channel": {"base_length_m": 1.0}},
            {"time_s": 5.0, "channel": {"base_length_m": 2.0}},
        ]
        with pytest.raises(ConfigError, match=r"schedule\[1\].time_s"):
            parse_config(TimingScenario, cfg)

    def test_schedule_inside_duration(self):
        cfg = self.base_config()
        cfg["schedule"] = [{"time_s": 20.0, "channel": {"base_length_m": 1.0}}]
        with pytest.raises(ConfigError, match=r"schedule\[0\].time_s"):
            parse_config(TimingScenario, cfg)

    def test_unknown_detector_key(self):
        cfg = self.base_config()
        cfg["detectors"] = {"charlie": {}}
        with pytest.raises(ConfigError, match=r"^unknown field detectors\.charlie$"):
            parse_config(TimingScenario, cfg)

    def test_non_numeric_field(self):
        cfg = self.base_config()
        cfg["alice_source"]["pair_rate_hz"] = "fast"
        with pytest.raises(ConfigError, match="alice_source.pair_rate_hz"):
            parse_config(TimingScenario, cfg)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", 1.5, r"field seed must be an integer"),
            ("duration", 10.0, r"unknown field duration"),
            # A misspelt attack length must not load as a symmetric channel.
            ("channel", {"eve_length_ab": 10.0}, r"unknown field channel\.eve_length_ab"),
            (
                "detectors",
                {"bob_remote": {"dark_rate": 10.0}},
                r"unknown field detectors\.bob_remote\.dark_rate",
            ),
            ("schedule", [{"time_s": 5.0}], r"missing field schedule\[0\]\.channel"),
            ("schedule", [7], r"field schedule\[0\] must be an object"),
            ("alice_source", 5, r"field alice_source must be an object"),
            # Value checks run when each nested model is built.
            (
                "detectors",
                {"bob_remote": {"efficiency": 1.5}},
                r"detectors\.bob_remote\.efficiency must be in \[0, 1\]",
            ),
            (
                "schedule",
                [{"time_s": 5.0, "channel": {"base_length_m": -1.0}}],
                r"schedule\[0\]\.channel\.base_length_m must be finite and >= 0",
            ),
            ("analysis", {"bin_width_ps": 0}, r"analysis\.bin_width_ps must be >= 1"),
            (
                "alice_clock",
                {"offset_ps": 2**62},
                r"alice_clock\.offset_ps magnitude must be < 2\*\*62",
            ),
            ("block_s", math.nan, r"block_s must be finite and > 0"),
            ("block_s", math.inf, r"block_s must be finite and > 0"),
            # Blocks that round to 0 ps or overflow integer ps.
            ("block_s", 1e-300, BLOCK_PS_RANGE),
            ("block_s", 1e300, BLOCK_PS_RANGE),
            # Past 100 ppm a clock's float64 drift term can step its readings back.
            ("bob_clock", {"drift_ppb": -2e5}, r"bob_clock\.drift_ppb must be in \[-1e5, 1e5\]"),
            (
                "alice_source",
                {"pair_rate_hz": 1.0, "emission_jitter_sigma_ps": 1e300},
                r"alice_source\.emission_jitter_sigma_ps must be in \[0, 1e12\]",
            ),
            (
                "detectors",
                {"alice_local": {"jitter_sigma_ps": 1e300}},
                r"detectors\.alice_local\.jitter_sigma_ps must be in \[0, 1e12\]",
            ),
            # Each length is finite, their sum is not.
            (
                "channel",
                {"base_length_m": 1e308, "eve_length_ab_m": 1e308},
                r"channel\.AtoB delay must be < 2\*\*62 ps",
            ),
            # Valid clocks whose readings would leave the timestamp range.
            (
                "bob_clock",
                {"drift_ppb": 1e5, "offset_ps": 2**62 - 74 * 10**12 - 10**9},
                CLOCK_RANGE.format("bob_clock"),
            ),
            ("alice_clock", {"offset_ps": 2**62 - 1000}, CLOCK_RANGE.format("alice_clock")),
            ("alice_clock", {"offset_ps": -(2**62) + 1000}, CLOCK_RANGE.format("alice_clock")),
            # 1 ns blocks are shorter than the 2 us window; 50 us blocks are too many.
            ("block_s", 1e-9, BLOCK_IN_WINDOW),
            ("block_s", 5e-5, r"200000 blocks of block_s in this run; at most 100000 allowed"),
            *(
                ("analysis", values, re.escape(f"analysis.{message}"))
                for values, message in WINDOW_PAST_INT64.values()
            ),
            (
                "analysis",
                {"min_separation_ps": -1},
                r"analysis\.min_separation_ps must be >= 0",
            ),
            *(
                (
                    "analysis",
                    {"threshold_sigma": v},
                    r"analysis\.threshold_sigma must be finite and >= 0",
                )
                for v in (math.nan, -1.0)
            ),
            (
                "analysis",
                {"centroid_halfwidth_bins": 0},
                r"analysis\.centroid_halfwidth_bins must be >= 1",
            ),
            (
                "detectors",
                {"bob_local": {"dark_rate_hz": -1.0}},
                r"detectors\.bob_local\.dark_rate_hz must be in \[0, 1e12\]",
            ),
            (
                "detectors",
                {"alice_remote": {"dead_time_ps": -1}},
                r"detectors\.alice_remote\.dead_time_ps must be >= 0",
            ),
            ("schedule", {"time_s": 5.0}, r"field schedule must be a list"),
        ],
    )
    def test_field_error_names_path(self, key, value, message):
        cfg = self.base_config()
        cfg[key] = value
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(TimingScenario, cfg)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PairSourceModel(-1.0), r"pair_rate_hz must be in \[0, 1e12\]"),
            (lambda: DetectorModel(efficiency=1.5), r"efficiency must be in \[0, 1\]"),
            (lambda: ClockModel(drift_ppb=math.nan), "drift_ppb must be finite"),
            (lambda: ChannelConfig(group_index=0.9), "group_index must be finite and >= 1"),
            (lambda: SyncAnalysisParams(bin_width_ps=0), "bin_width_ps must be >= 1"),
            (lambda: FaradayParams(n0=1.0), "n0 must be > 1"),
            (
                lambda: TimingScenario(
                    0.0, 1, PairSourceModel(1.0), PairSourceModel(1.0), ChannelConfig()
                ),
                "duration_s must be finite and > 0",
            ),
            (lambda: TomoScenario(seed=1, reps=1), "reps must be >= 2"),
            (
                lambda: dataclasses.replace(
                    TimingScenario(
                        10.0, 1, PairSourceModel(1.0), PairSourceModel(1.0), ChannelConfig()
                    ),
                    seed=-1,
                ),
                "seed must be >= 0",
            ),
            (lambda: dataclasses.replace(TomoScenario(seed=1), seed=-1), "seed must be >= 0"),
        ],
        ids=[
            "PairSourceModel",
            "DetectorModel",
            "ClockModel",
            "ChannelConfig",
            "SyncAnalysisParams",
            "FaradayParams",
            "TimingScenario",
            "TomoScenario",
            "replace_TimingScenario",
            "replace_TomoScenario",
        ],
    )
    def test_model_checks_itself_when_built(self, build, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()

    def test_integer_valued_float_accepted_for_int_field(self):
        cfg = self.base_config()
        cfg["seed"] = 3.0
        sc = parse_config(TimingScenario, cfg)
        assert sc.seed == 3 and isinstance(sc.seed, int)

    def test_tomo_fields_checked(self):
        assert parse_config(TomoScenario, {"seed": 1, "state": "psi_minus"}).seed == 1
        with pytest.raises(ConfigError, match="state must be 'psi_minus'"):
            parse_config(TomoScenario, {"seed": 1, "state": "phi_plus"})
        with pytest.raises(ConfigError, match=r"^unknown field faraday\.n$"):
            parse_config(TomoScenario, {"seed": 1, "faraday": {"n": 1.6}})
        for key, rule in (("counts_per_setting", "> 0"), ("accidentals_per_setting", ">= 0")):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigError, match=f"^{key} must be finite and {rule}$"):
                    parse_config(TomoScenario, {"seed": 1, key: value})
            # 1e300 is above the 1e18 cap; a sum of exactly 1e18 is accepted.
            with pytest.raises(ConfigError, match=f"^{TOMO_MEAN_LIMIT}$"):
                parse_config(TomoScenario, {"seed": 1, key: 1e300})
        limit = {"counts_per_setting": 0.5e18, "accidentals_per_setting": 0.5e18}
        assert parse_config(TomoScenario, {"seed": 1, **limit}).counts_per_setting == 0.5e18

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"faraday": {"wavelength_nm": 0.0}}, r"faraday\.wavelength_nm must be > 0"),
            ({"faraday": {"length_d_m": -0.01}}, r"faraday\.length_d_m must be > 0"),
            (
                {"faraday": {"rotation_VBd_rad": math.inf}},
                r"faraday\.rotation_VBd_rad must be finite",
            ),
            *(
                (
                    {"attack": "naive", "theta_rad": theta},
                    r"theta_rad must be in \[0, pi\] for the naive attack",
                )
                for theta in (-0.1, 3.2)
            ),
            *(
                ({"depolarization": v}, r"depolarization must be in \[0, 1\]")
                for v in (-0.1, 1.5)
            ),
        ],
    )
    def test_tomo_field_error_names_path(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(TomoScenario, {"seed": 1, **fields})


class TestRunScenario:
    def test_artifacts_written(self, smoke_run):
        out, summary = smoke_run
        names = {p.name for p in out.iterdir()}
        assert {"alice.tt", "bob.tt", "estimates.json", "summary.json"} <= names
        assert {"g2_block_000.csv", "g2_block_001.csv"} <= names
        assert summary["n_blocks"] == 2
        assert summary["n_estimates"] == 2
        assert summary["measured_shift_ps"] is None

    def test_estimates_schema(self, smoke_run):
        out, _ = smoke_run
        payload = json.loads((out / "estimates.json").read_text())
        assert [e["block_index"] for e in payload] == [0, 1]
        assert set(payload[0]) == {"block_index", "delta_ps", "round_trip_ps", "delta_sigma_ps"}
        for entry in payload:
            assert abs(entry["delta_ps"] - 137000.0) < 10.0

    def test_blocks_and_segments_share_the_ps_grid(self):
        # The channel switches 500 ps after block 1 starts, so block 1 lies in
        # neither segment; a run 500 ps short of 3 s holds two whole blocks.
        sc = TimingScenario(
            duration_s=3.0,
            seed=1,
            alice_source=PairSourceModel(1.0),
            bob_source=PairSourceModel(1.0),
            channel=ChannelConfig(),
            schedule=(ScheduleEntry(1.0000000005, ChannelConfig(eve_length_ab_m=10.0)),),
            block_s=1.0,
        )
        summary = build_timing_summary(sc, [SyncEstimate(k, 0.0, 0.0, 1.0) for k in range(3)])
        assert summary["n_blocks"] == 3
        assert [seg["n_blocks_used"] for seg in summary["segments"]] == [1, 1]
        assert dataclasses.replace(sc, duration_s=2.9999999995).n_blocks() == 2

    def test_seed_override_changes_output(self, scenario_dir, tmp_path):
        summary = run_scenario(scenario_dir / "smoke.json", tmp_path / "a", seed=99)
        assert summary["seed"] == 99

    def test_byte_identical_reruns(self, scenario_dir, smoke_run, tmp_path):
        first, _ = smoke_run
        second = tmp_path / "again"
        run_scenario(scenario_dir / "smoke.json", second)
        assert dir_digest(first) == dir_digest(second)

    def test_csv_tag_format(self, scenario_dir, smoke_run, tmp_path):
        binary_out, _ = smoke_run
        out = tmp_path / "csv_tags"
        code = cli_main(
            [
                "simulate",
                "--config", str(scenario_dir / "smoke.json"),
                "--out", str(out),
                "--tag-format", "csv",
            ]
        )
        assert code == 0
        assert (out / "alice.csv").exists() and not (out / "alice.tt").exists()
        assert (out / "estimates.json").read_bytes() == (
            binary_out / "estimates.json"
        ).read_bytes()

    def test_cli_prints_the_summary_shift(self, scenario_dir, tmp_path, capsys):
        # 4 s at 20 kHz, with 10 m of one-way fiber added at 2 s.
        cfg = json.loads((scenario_dir / "smoke.json").read_text())
        for source in ("alice_source", "bob_source"):
            cfg[source]["pair_rate_hz"] = 20000.0
        channel = dict(cfg["channel"], eve_length_ab_m=11.0)
        cfg.update(duration_s=4.0, block_s=1.0, schedule=[{"time_s": 2.0, "channel": channel}])
        config = write_json(tmp_path / "scheduled.json", cfg)
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        printed = re.search(
            r"measured offset shift (\S+) ps \(predicted (\S+) ps, sigma (\S+) ps\)",
            capsys.readouterr().out,
        )
        summary = json.loads((out / "summary.json").read_text())
        shift, predicted = summary["measured_shift_ps"], summary["predicted_shift_ps"]
        sigma = summary["shift_sigma_ps"]
        assert printed.groups() == (f"{shift:.1f}", f"{predicted:.1f}", f"{sigma:.2f}")
        assert abs(shift - predicted) < 5 * sigma

    def test_zero_rate_sources_graceful(self, tmp_path):
        cfg = {
            "duration_s": 80.0,
            "seed": 3,
            "alice_source": {"pair_rate_hz": 0.0},
            "bob_source": {"pair_rate_hz": 0.0},
            "channel": {"base_length_m": 1.0},
        }
        config = write_json(tmp_path / "zero.json", cfg)
        code = cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert json.loads((tmp_path / "out" / "estimates.json").read_text()) == []

    def test_each_record_carries_its_own_two_labels(self):
        # Blind detectors on one arm per party: those arms record darks alone.
        blind = DetectorModel(efficiency=0.0, dark_rate_hz=5000.0)
        sc = TimingScenario(
            duration_s=1.0,
            seed=7,
            alice_source=PairSourceModel(1000.0),
            bob_source=PairSourceModel(1000.0),
            channel=ChannelConfig(base_length_m=1.0),
            detectors=Detectors(alice_remote=blind, bob_local=blind),
        )
        alice, bob = simulate_timing(sc)
        assert set(alice.channels.tolist()) == {CH_ALICE_LOCAL, CH_ALICE_REMOTE}
        assert set(bob.channels.tolist()) == {CH_BOB_LOCAL, CH_BOB_REMOTE}
        for record, channel in ((alice, CH_ALICE_REMOTE), (bob, CH_BOB_LOCAL)):
            darks = int(np.count_nonzero(record.channels == channel))
            assert abs(darks - 5000) < 5.0 * math.sqrt(5000)

    def test_simulate_builds_each_record_once(self, scenario_dir, monkeypatch):
        # One checked record per party: apply_clock builds it, nothing before it does.
        built = []
        check = TimeTagStream.__post_init__
        monkeypatch.setattr(TimeTagStream, "__post_init__", lambda s: built.append(check(s)))
        sc = dataclasses.replace(load_timing_scenario(scenario_dir / "smoke.json"), duration_s=2.0)
        simulate_timing(sc)
        assert len(built) == 2


class TestAnalyze:
    def test_roundtrip_matches_inline_results(self, smoke_run, tmp_path):
        out, _ = smoke_run
        redo = tmp_path / "redo"
        analyze_files(out / "alice.tt", out / "bob.tt", redo, SyncAnalysisParams(), 40.0)
        assert (redo / "estimates.json").read_bytes() == (out / "estimates.json").read_bytes()

    def test_csv_and_binary_agree(self, smoke_run, tmp_path):
        out, _ = smoke_run
        alice = read_tags_binary(out / "alice.tt")
        bob = read_tags_binary(out / "bob.tt")
        write_tags_csv(alice, tmp_path / "alice.csv")
        write_tags_csv(bob, tmp_path / "bob.csv")
        from_csv = tmp_path / "from_csv"
        analyze_files(
            tmp_path / "alice.csv", tmp_path / "bob.csv", from_csv, SyncAnalysisParams(), 40.0
        )
        assert (from_csv / "estimates.json").read_bytes() == (
            out / "estimates.json"
        ).read_bytes()

    def test_truncated_binary_exits_3(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        broken = tmp_path / "broken.tt"
        broken.write_bytes((out / "alice.tt").read_bytes()[:-5])
        code = cli_main(
            [
                "analyze",
                "--alice", str(broken),
                "--bob", str(out / "bob.tt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "byte offset" in capsys.readouterr().err

    def test_out_of_range_timestamp_exits_3(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        broken = tmp_path / "broken.tt"
        broken.write_bytes((out / "alice.tt").read_bytes() + struct.pack("<qII", 2**62, 0, 0))
        code = cli_main(
            [
                "analyze",
                "--alice", str(broken),
                "--bob", str(out / "bob.tt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert f"i/o error: out-of-range value in {broken}" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".csv", ".tt"])
    def test_unsorted_tag_file_exits_3(self, smoke_run, tmp_path, capsys, suffix):
        out, _ = smoke_run
        unsorted = tmp_path / f"unsorted{suffix}"
        if suffix == ".csv":
            unsorted.write_text("timestamp_ps,channel\n10,0\n5,0\n")
        else:
            unsorted.write_bytes(struct.pack("<qII", 10, 0, 0) + struct.pack("<qII", 5, 0, 0))
        code = cli_main(
            [
                "analyze",
                "--alice", str(unsorted),
                "--bob", str(out / "bob.tt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"i/o error: stream is not sorted by timestamp in {unsorted}" in err

    def test_undecodable_csv_line_exits_3(self, smoke_run, tmp_path, capsys):
        out, _ = smoke_run
        tags = tmp_path / "alice.csv"
        tags.write_bytes(b"timestamp_ps,channel\n10,0\n2\xff0,0\n30,0\n")
        code = cli_main(
            [
                "analyze",
                "--alice", str(tags),
                "--bob", str(out / "bob.tt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert f"i/o error: malformed record at line 3 in {tags}" in capsys.readouterr().err

    def test_cli_analyze_matches_api(self, smoke_run, tmp_path):
        out, _ = smoke_run
        cli_out = tmp_path / "cli"
        code = cli_main(
            [
                "analyze",
                "--alice", str(out / "alice.tt"),
                "--bob", str(out / "bob.tt"),
                "--out", str(cli_out),
                "--block-s", "40.0",
            ]
        )
        assert code == 0
        assert (cli_out / "estimates.json").read_bytes() == (
            out / "estimates.json"
        ).read_bytes()

    def test_explicit_n_blocks_limits_analysis(self, smoke_run, tmp_path):
        out, _ = smoke_run
        limited = tmp_path / "limited"
        code = cli_main(
            [
                "analyze",
                "--alice", str(out / "alice.tt"),
                "--bob", str(out / "bob.tt"),
                "--out", str(limited),
                "--block-s", "40.0",
                "--n-blocks", "1",
            ]
        )
        assert code == 0
        payload = json.loads((limited / "estimates.json").read_text())
        assert [e["block_index"] for e in payload] == [0]

    def test_empty_tag_files_give_empty_estimates(self, tmp_path):
        from entsync.timetags import TimeTagStream, write_tags_binary

        empty = TimeTagStream(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32))
        write_tags_binary(empty, tmp_path / "a.tt")
        write_tags_binary(empty, tmp_path / "b.tt")
        assert (tmp_path / "a.tt").stat().st_size == 0
        estimates = analyze_files(
            tmp_path / "a.tt", tmp_path / "b.tt", tmp_path / "out", SyncAnalysisParams(), 40.0
        )
        assert estimates == []
        assert json.loads((tmp_path / "out" / "estimates.json").read_text()) == []


class TestBlocksCovered:
    """Which blocks ``analyze`` finds in recorded tags: complete_blocks."""

    def test_low_rate_short_blocks_agree_with_simulate(self, scenario_dir, tmp_path):
        # 200 Hz with darks: the records' last events sit ~2.5 ms before the
        # end, past 0.1 % of a 1 s block.
        smoke = json.loads((scenario_dir / "smoke.json").read_text())
        config = write_json(tmp_path / "timing.json", {**smoke, "duration_s": 2.0, "block_s": 1.0})
        sim, ana = tmp_path / "sim", tmp_path / "ana"
        assert cli_main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
        tags = ["--alice", str(sim / "alice.tt"), "--bob", str(sim / "bob.tt")]
        assert cli_main(["analyze", *tags, "--out", str(ana), "--block-s", "1"]) == 0
        for out in (sim, ana):
            assert len(json.loads((out / "estimates.json").read_text())) == 2
        assert (ana / "estimates.json").read_bytes() == (sim / "estimates.json").read_bytes()

    def test_recording_cut_mid_block_keeps_only_whole_blocks(self, scenario_dir, tmp_path):
        sc = dataclasses.replace(load_timing_scenario(scenario_dir / "smoke.json"), duration_s=2.0)
        for name, record in zip(("alice", "bob"), simulate_timing(sc)):
            kept = record.timestamps_ps < 3 * PS_PER_S // 2
            cut = TimeTagStream(record.timestamps_ps[kept], record.channels[kept])
            write_tags_binary(cut, tmp_path / f"{name}.tt")
        out = tmp_path / "out"
        analyze_files(tmp_path / "alice.tt", tmp_path / "bob.tt", out, SyncAnalysisParams(), 1.0)
        assert sorted(p.name for p in out.glob("g2_block_*.csv")) == ["g2_block_000.csv"]

    def test_paper_and_high_rate_records_cover_their_blocks(self, scenario_dir):
        fig3 = load_timing_scenario(scenario_dir / "fig3.json")
        # The benchmark's high_rate run (100 kHz sources, realistic detectors,
        # two blocks), shortened a hundredfold.
        detector = DetectorModel(
            jitter_sigma_ps=40.0, efficiency=0.7, dark_rate_hz=1000.0, dead_time_ps=25_000
        )
        fig2c = load_timing_scenario(scenario_dir / "fig2c.json")
        source = dataclasses.replace(fig2c.alice_source, pair_rate_hz=100_000.0)
        high_rate = dataclasses.replace(
            fig2c,
            duration_s=0.8,
            block_s=0.4,
            alice_source=source,
            bob_source=source,
            detectors=Detectors(detector, detector, detector, detector),
        )
        for sc, expected in ((fig3, 22), (high_rate, 2)):
            alice, bob = simulate_timing(sc)
            block_ps = round(sc.block_s * PS_PER_S)
            assert complete_blocks(alice.timestamps_ps, bob.timestamps_ps, block_ps) == expected


class TestCliErrors:
    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = cli_main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"seed": 1\xff}', "invalid JSON"),
            (b"\xff", "invalid JSON"),
            (b"{not json", "invalid JSON"),
            (b"1" * 5000, "invalid JSON"),
            (b"[" * 100_000, "invalid JSON"),
            (b"[1, 2]", "config must be a JSON object"),
        ],
        ids=[
            "non_utf8_byte", "lone_non_utf8_byte", "syntax", "digit_limit", "deep_nesting",
            "not_an_object",
        ],
    )
    @pytest.mark.parametrize("cmd", ["simulate", "tomo", "predict"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, cmd, content, message):
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        argv = [cmd, "--config", str(config)]
        if cmd != "predict":
            argv += ["--out", str(tmp_path / "o")]
        assert cli_main(argv) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "cmd, config_name, field, value",
        [
            ("tomo", "tomo_full.json", "depolarization", 1.5),
            ("tomo", "tomo_full.json", "depolarization", math.nan),
            ("simulate", "smoke.json", "duration_s", -1.0),
            ("simulate", "smoke.json", "duration_s", math.inf),
            ("tomo", "tomo_full.json", "counts_per_setting", 0.0),
            ("tomo", "tomo_full.json", "counts_per_setting", math.nan),
            ("tomo", "tomo_full.json", "accidentals_per_setting", -1.0),
            ("tomo", "tomo_full.json", "reps", 1),
            ("simulate", "smoke.json", "channel.group_index", 0.9),
            ("simulate", "smoke.json", "channel.base_length_m", -1.0),
            # Past one event per picosecond; numpy's draws would refuse the rate.
            ("simulate", "fig2a.json", "alice_source.pair_rate_hz", 1e300),
            ("simulate", "fig2a.json", "detectors.alice_local.dark_rate_hz", 1e300),
        ],
    )
    def test_values_are_checked_by_their_model(
        self, scenario_dir, tmp_path, capsys, cmd, config_name, field, value
    ):
        # Each value is checked once, by the scenario model that owns it.
        cfg = json.loads((scenario_dir / config_name).read_text())
        *parents, name = field.split(".")
        node = cfg
        for parent in parents:
            node = node[parent]
        node[name] = value
        config = write_json(tmp_path / "bad.json", cfg)
        assert cli_main([cmd, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {field} must" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_past_memory_exits_1_and_leaves_no_directory(
        self, scenario_dir, tmp_path, capsys
    ):
        # 1e12 pairs/s for 300 s passes every model check, but its first array
        # needs petabytes, more than any address space, so numpy refuses it at once.
        cfg = json.loads((scenario_dir / "fig2a.json").read_text())
        cfg["alice_source"]["pair_rate_hz"] = 1e12
        config = write_json(tmp_path / "big.json", cfg)
        assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "config error: not enough memory for this run: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tag_format_is_checked_by_its_flag(self, scenario_dir, tmp_path, capsys):
        argv = ["simulate", "--config", str(scenario_dir / "smoke.json"), "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--tag-format", "hdf5"])
        assert exc.value.code == 2
        assert "--tag-format: invalid choice: 'hdf5'" in capsys.readouterr().err

    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = {
            "duration_s": 10.0,
            "seed": 1,
            "alice_source": {"pair_rate_hz": -5.0},
            "bob_source": {"pair_rate_hz": 100.0},
            "channel": {},
        }
        config = write_json(tmp_path / "bad.json", cfg)
        code = cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "alice_source.pair_rate_hz" in capsys.readouterr().err

    def test_non_object_section_exits_1(self, tmp_path, capsys):
        cfg = {
            "duration_s": 10.0,
            "seed": 1,
            "alice_source": 5,
            "bob_source": {"pair_rate_hz": 100.0},
            "channel": {},
        }
        config = write_json(tmp_path / "bad.json", cfg)
        code = cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "field alice_source must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "c.json", "--out", "o"],
            ["analyze", "--alice", "a.tt", "--bob", "b.tt", "--out", "o"],
            ["tomo", "--config", "c.json", "--out", "o"],
        ],
    )
    def test_threads_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_1(self, smoke_run, scenario_dir, tmp_path, capsys, value):
        out, _ = smoke_run
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        timing["block_s"] = float(value)
        tomo = {"seed": 1, "counts_per_setting": float(value)}
        runs = [
            (
                ["simulate", "--config", str(write_json(tmp_path / "timing.json", timing))],
                "block_s must be finite and > 0",
            ),
            (
                ["analyze", "--alice", str(out / "alice.tt"), "--bob", str(out / "bob.tt"),
                 "--block-s", value],
                "block_s must be finite and > 0",
            ),
            (
                ["tomo", "--config", str(write_json(tmp_path / "tomo.json", tomo))],
                "counts_per_setting must be finite and > 0",
            ),
        ]
        for argv, message in runs:
            assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 1
            assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-300", "1e300"])
    def test_block_outside_integer_ps_exits_1(
        self, smoke_run, scenario_dir, tmp_path, capsys, value
    ):
        out, _ = smoke_run
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        timing["block_s"] = float(value)
        runs = [
            ["simulate", "--config", str(write_json(tmp_path / "timing.json", timing))],
            ["analyze", "--alice", str(out / "alice.tt"), "--bob", str(out / "bob.tt"),
             "--block-s", value],
        ]
        for argv in runs:
            assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert "config error: block_s must round to at least 1 ps" in err

    def test_too_many_or_too_short_blocks_exit_1(self, smoke_run, scenario_dir, tmp_path, capsys):
        out, _ = smoke_run
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        timing["block_s"] = 1e-9
        tags = ["--alice", str(out / "alice.tt"), "--bob", str(out / "bob.tt")]
        runs = [
            (
                ["simulate", "--config", str(write_json(tmp_path / "timing.json", timing))],
                "block_s must be at least the g2 window, 2000000 ps",
            ),
            (
                ["analyze", *tags, "--block-s", "1e-9"],
                "block_s must be at least the g2 window, 2000000 ps",
            ),
            (
                ["analyze", *tags, "--block-s", "2e-6"],
                "39998796 blocks of block_s in this run; at most 100000 allowed",
            ),
            (
                ["analyze", *tags, "--n-blocks", "100001"],
                "100001 blocks of block_s in this run; at most 100000 allowed",
            ),
            (["analyze", *tags, "--n-blocks", "-3"], "n_blocks must be >= 0"),
        ]
        for argv, message in runs:
            assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 1
            assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            (None, "duration_s", 1e7, "duration_s must be < 2**62 ps"),
            ("channel", "base_length_m", 1e15, "channel.AtoB delay must be < 2**62 ps"),
            ("channel", "base_length_m", 1e20, "channel.AtoB delay must be < 2**62 ps"),
        ],
    )
    def test_time_past_the_timestamp_range_exits_1(
        self, scenario_dir, tmp_path, capsys, section, key, value, message
    ):
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        (timing[section] if section else timing)[key] = value
        config = write_json(tmp_path / "timing.json", timing)
        assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("bob_clock", {"drift_ppb": -2e9}, "bob_clock.drift_ppb must be in [-1e5, 1e5]"),
            (
                "alice_source",
                {"emission_jitter_sigma_ps": 1e300},
                "alice_source.emission_jitter_sigma_ps must be in [0, 1e12]",
            ),
            (
                "detectors",
                {"alice_local": {"jitter_sigma_ps": 1e300}},
                "detectors.alice_local.jitter_sigma_ps must be in [0, 1e12]",
            ),
            (
                "channel",
                {"base_length_m": 1e308, "eve_length_ab_m": 1e308},
                "channel.AtoB delay must be < 2**62 ps",
            ),
            (
                "bob_clock",
                {"drift_ppb": 1e5, "offset_ps": 2**62 - 144 * 10**12 - 10**9},
                "bob_clock must read below 2**62 ps",
            ),
            ("alice_clock", {"offset_ps": 2**62 - 1000}, "alice_clock must read below 2**62 ps"),
            *(
                ("analysis", values, f"analysis.{message}")
                for values, message in WINDOW_PAST_INT64.values()
            ),
        ],
        ids=[
            "backward_clock",
            "emission_jitter",
            "detector_jitter",
            "length_sum",
            "huge_drift",
            "offset_near_range",
            *WINDOW_PAST_INT64,
        ],
    )
    def test_model_out_of_range_exits_1(
        self, scenario_dir, tmp_path, capsys, section, values, message
    ):
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        timing[section].update(values)
        config = write_json(tmp_path / "timing.json", timing)
        assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "detector_sigma, code", [(0.0, 0), (1e12, 1)], ids=["at_bound", "past_bound"]
    )
    def test_composed_arm_jitter_runs_or_exits_1(
        self, scenario_dir, tmp_path, capsys, detector_sigma, code
    ):
        # Each sigma may reach 1e12 ps alone; an arm draws one Gaussian of their
        # quadrature sum, which must not pass it either. Alice's photons reach
        # bob_remote, so its detector names her source.
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        timing.update(duration_s=2.0, block_s=1.0)
        timing["alice_source"]["emission_jitter_sigma_ps"] = 1e12
        timing["detectors"] = {"bob_remote": {"jitter_sigma_ps": detector_sigma}}
        config = write_json(tmp_path / "timing.json", timing)
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == code
        if code:
            assert (
                "config error: detectors.bob_remote.jitter_sigma_ps and"
                " alice_source.emission_jitter_sigma_ps must combine in quadrature to at most 1e12"
            ) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("values, message", WINDOW_PAST_INT64.values(), ids=WINDOW_PAST_INT64)
    def test_analyze_window_past_int64_exits_1(self, smoke_run, tmp_path, capsys, values, message):
        out, _ = smoke_run
        argv = ["analyze", "--alice", str(out / "alice.tt"), "--bob", str(out / "bob.tt")]
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert cli_main(argv + ["--out", str(tmp_path / "o"), "--block-s", "1"]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_g2_bin_cap_exits_1(self, smoke_run, scenario_dir, tmp_path, capsys):
        out, _ = smoke_run
        too_many = {"tau_min_ps": -(10**12), "tau_max_ps": 10**12, "bin_width_ps": 1}
        message = "bin_width_ps must split the g2 window into at most 2**22 bins"
        argv = ["analyze", "--alice", str(out / "alice.tt"), "--bob", str(out / "bob.tt")]
        for key, value in too_many.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        timing = json.loads((scenario_dir / "smoke.json").read_text())
        timing["analysis"].update(too_many)
        config = write_json(tmp_path / "timing.json", timing)
        assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 1
        assert f"config error: analysis.{message}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("key", ["counts_per_setting", "accidentals_per_setting"])
    def test_tomo_mean_count_above_limit_exits_1(self, tmp_path, capsys, key):
        config = write_json(tmp_path / "tomo.json", {"seed": 1, key: 1e300})
        assert cli_main(["tomo", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: counts_per_setting + accidentals_per_setting must be <= 1e18" in err

    def test_analyze_flags_cover_analysis_params(self, tmp_path, monkeypatch):
        received = []

        def fake_analyze_files(alice, bob, out, params, block_s, n_blocks=None):
            received.append((params, block_s))
            return []

        monkeypatch.setattr(cli, "analyze_files", fake_analyze_files)
        argv = ["analyze", "--alice", "a.tt", "--bob", "b.tt", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        assert received.pop() == (SyncAnalysisParams(), TimingScenario.block_s)

        flags = {
            "--tau-min-ps": ("tau_min_ps", -400_000),
            "--tau-max-ps": ("tau_max_ps", 300_000),
            "--bin-width-ps": ("bin_width_ps", 8),
            "--min-separation-ps": ("min_separation_ps", 2_500),
            "--threshold-sigma": ("threshold_sigma", 3.5),
            "--centroid-halfwidth-bins": ("centroid_halfwidth_bins", 11),
        }
        defaults = {f.name: f.default for f in dataclasses.fields(SyncAnalysisParams)}
        assert {name for name, _ in flags.values()} == set(defaults)
        for flag, (name, value) in flags.items():
            assert value != defaults[name]
            assert cli_main(argv + [flag, str(value)]) == 0
            params, _ = received.pop()
            assert params == SyncAnalysisParams(**{name: value})

    def test_bad_analysis_flag_rejected_before_reading(self, tmp_path, capsys, monkeypatch):
        read = []
        monkeypatch.setattr(scenario, "read_tags", lambda path: read.append(path))
        code = cli_main(
            [
                "analyze",
                "--alice", str(tmp_path / "missing.tt"),
                "--bob", str(tmp_path / "missing.tt"),
                "--out", str(tmp_path / "o"),
                "--bin-width-ps", "0",
            ]
        )
        assert code == 1
        assert read == []
        assert "config error: bin_width_ps must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--block-s", "0"], "block_s must be finite and > 0"),
            (["--block-s", "1e-6"], BLOCK_IN_WINDOW),
            (["--n-blocks", "-1"], "n_blocks must be >= 0"),
        ],
    )
    def test_bad_block_flag_rejected_before_reading(self, tmp_path, capsys, flags, message):
        missing = str(tmp_path / "missing.tt")
        argv = ["analyze", "--alice", missing, "--bob", missing, "--out", str(tmp_path / "o")]
        assert cli_main(argv + flags) == 1
        assert re.search(f"config error: {message}", capsys.readouterr().err)


class TestPredict:
    def test_channel_only_config(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "chan.json",
            {"base_length_m": 0.0, "eve_length_ab_m": 10.0, "eve_length_ba_m": 0.0},
        )
        assert cli_main(["predict", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_offset_error_ps"] == pytest.approx(25240.795083644167)
        assert payload["delay_ab_ps"] > payload["delay_ba_ps"]

    def test_scenario_config(self, scenario_dir, capsys):
        assert cli_main(["predict", "--config", str(scenario_dir / "fig2c.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_offset_error_ps"] == pytest.approx(25240.795083644167)


class TestTomoScenario:
    def small_config(self, tmp_path, **overrides):
        cfg = {
            "seed": 42,
            "attack": "none",
            "counts_per_setting": 2000.0,
            "reps": 4,
        }
        cfg.update(overrides)
        return write_json(tmp_path / "tomo.json", cfg)

    def test_artifacts_and_summary(self, tmp_path):
        config = self.small_config(tmp_path)
        summary = run_tomo_scenario(config, tmp_path / "out")
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {
            "counts_before.csv",
            "counts_after.csv",
            "rho_before.json",
            "rho_after.json",
            "fidelity_distribution.json",
            "summary.json",
        } <= names
        assert summary["fidelity_before_vs_after"] > 0.98
        dist = json.loads((tmp_path / "out" / "fidelity_distribution.json").read_text())
        assert len(dist["samples"]) == 4
        assert dist["ci95_low"] <= dist["mean"] <= dist["ci95_high"]

    def test_failed_repetition_is_counted(self, tmp_path, monkeypatch):
        # The first Monte Carlo fit fails; one failure in five is below the 20% limit.
        fits = []
        fit = tomography.mle_reconstruct

        def first_fails(table, start):
            fits.append(table)
            if len(fits) == 1:
                raise ReconstructionError("forced failure")
            return fit(table, start)

        monkeypatch.setattr(tomography, "mle_reconstruct", first_fails)
        summary = run_tomo_scenario(self.small_config(tmp_path, reps=5), tmp_path / "out")
        assert (summary["n_mc_samples"], summary["n_mc_failed"]) == (4, 1)
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_mc_failed"] == 1
        dist = json.loads((tmp_path / "out" / "fidelity_distribution.json").read_text())
        assert len(dist["samples"]) == 4
        assert len(fits) == 9  # rep 0 stops at its first fit; reps 1-4 fit both tables

    def test_deterministic_reruns(self, tmp_path):
        config = self.small_config(tmp_path)
        run_tomo_scenario(config, tmp_path / "one")
        run_tomo_scenario(config, tmp_path / "two")
        assert dir_digest(tmp_path / "one") == dir_digest(tmp_path / "two")

    def test_cli_tomo(self, tmp_path, capsys):
        config = self.small_config(tmp_path)
        code = cli_main(["tomo", "--config", str(config), "--out", str(tmp_path / "cli")])
        assert code == 0
        assert "Monte Carlo mean" in capsys.readouterr().out

    def test_naive_attack_config(self, tmp_path):
        config = self.small_config(
            tmp_path, attack="naive", theta_rad=math.pi / 3.0, counts_per_setting=5000.0
        )
        summary = run_tomo_scenario(config, tmp_path / "naive")
        assert summary["fidelity_before_vs_after"] < 0.05
        assert summary["fidelity_before_vs_target"] > 0.98
        assert summary["fidelity_after_vs_target"] < 0.05

    def test_invalid_attack_rejected(self, tmp_path, capsys):
        config = self.small_config(tmp_path, attack="sneaky")
        code = cli_main(["tomo", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "attack" in capsys.readouterr().err

    def test_full_attack_off_the_half_turn_exits_1_before_writing(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "tomo.json",
            {"seed": 1, "attack": "full", "faraday": {"rotation_VBd_rad": -3.0}, "reps": 2},
        )
        out = tmp_path / "x"
        assert cli_main(["tomo", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: faraday.rotation_VBd_rad must equal -pi (half-turn circulator)" in err
        assert not out.exists()
        # The same 1e-9 tolerance as the polarization functions, and only for the full attack.
        near = {"rotation_VBd_rad": -math.pi + 5e-10}
        assert parse_config(TomoScenario, {"seed": 1, "attack": "full", "faraday": near})
        assert parse_config(TomoScenario, {"seed": 1, "faraday": {"rotation_VBd_rad": -3.0}})

    def test_all_zero_counts_exit_2(self, tmp_path, capsys):
        config = self.small_config(tmp_path, counts_per_setting=1e-12)
        out = tmp_path / "x"
        assert cli_main(["tomo", "--config", str(config), "--out", str(out)]) == 2
        assert "analysis failure: all counts are zero" in capsys.readouterr().err
        # The fits fail before anything is written.
        assert not out.exists()

    def test_seed_flag_matches_seed_in_config(self, tmp_path):
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        config = self.small_config(tmp_path)
        assert cli_main(["tomo", "--config", str(config), "--out", str(flagged), "--seed", "7"]) == 0
        config = self.small_config(tmp_path, seed=7)
        assert cli_main(["tomo", "--config", str(config), "--out", str(configured)]) == 0
        assert dir_digest(flagged) == dir_digest(configured)

    def test_depolarization_lowers_target_fidelity(self, tmp_path):
        config = self.small_config(
            tmp_path, depolarization=0.2, counts_per_setting=50_000.0, reps=3
        )
        summary = run_tomo_scenario(config, tmp_path / "depol")
        assert 0.7 < summary["fidelity_before_vs_target"] < 0.95
        assert summary["fidelity_before_vs_after"] > 0.98

    def test_no_attack_pipeline_noise_floor(self, tmp_path):
        # Two independent samplings of the same state reconstruct to
        # near-unit mutual fidelity.
        config = self.small_config(tmp_path, counts_per_setting=20_000.0, reps=6)
        summary = run_tomo_scenario(config, tmp_path / "floor")
        assert summary["fidelity_mc_mean"] > 0.99
