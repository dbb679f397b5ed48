"""Golden sha256 digests of every artifact of small end-to-end runs.

Any refactor that moves a single output byte fails here; a change that is
meant to alter an output format updates these digests and says so. The
tomography digests depend on the floating-point results of the MLE fits; they
were recorded with Python 3.11, numpy 2.4 and scipy 1.17 on x86-64, and a
different numerical stack may legitimately change them.
"""
import hashlib
import json

from entsync.correlation import SyncAnalysisParams
from entsync.scenario import analyze_files, run_scenario, run_tomo_scenario

SMOKE_DIGESTS = {
    "alice.tt": "1b92f5fff5d72583aca8e0aff56f445893f3d6365665b639e2130c5f475f17c4",
    "bob.tt": "04a8ba124906a80f377c1abbb0653e9b7a8c3b94c56f20de6a5a7fe50170f5e1",
    "estimates.json": "9028ee805ae4b909bd08e25b5bcd28e80fe8f01a251b696e2cabd48de13990ac",
    "g2_block_000.csv": "5079e23e07f8aa3620101944dab299df878123b30f03300d02197294435a0f29",
    "g2_block_001.csv": "2b45c9860339a19277d8e5253878d88da79cc86bbf83bf56a883f3612d235a4c",
    "summary.json": "6299d9609d85b9f7f29557502134e179591c90a65ec9e8d637878a06aa6f3f8a",
}

# analyze_files on the smoke run's tags writes the same histograms and
# estimates as the run itself.
SMOKE_ANALYZE_DIGESTS = {
    name: SMOKE_DIGESTS[name]
    for name in ("estimates.json", "g2_block_000.csv", "g2_block_001.csv")
}

# Realistic detectors on all four channels, so that efficiency, jitter, dark
# counts and dead time all shape the recorded tags.
DETECTOR = {
    "efficiency": 0.7,
    "jitter_sigma_ps": 40.0,
    "dark_rate_hz": 1000.0,
    "dead_time_ps": 25000,
}
SOURCE = {"pair_rate_hz": 5000.0, "emission_jitter_sigma_ps": 150.0}
DETECTOR_CONFIG = {
    "duration_s": 4.0,
    "seed": 11,
    "block_s": 2.0,
    "alice_source": SOURCE,
    "bob_source": SOURCE,
    "bob_clock": {"offset_ps": 137000},
    "detectors": {
        key: DETECTOR for key in ("alice_local", "alice_remote", "bob_local", "bob_remote")
    },
    "channel": {"base_length_m": 1.9, "eve_length_ab_m": 1.0, "eve_length_ba_m": 1.0},
    "analysis": {"tau_min_ps": -200000, "tau_max_ps": 200000},
}

DETECTOR_DIGESTS = {
    "alice.tt": "d135212991e43440d9fd8b90e8698bf138c0cf84d632a2991878c167c1473659",
    "bob.tt": "0b846269cafe174f032b02d333f042feb723d01f4221fc8f53978eed0b148a51",
    "estimates.json": "d184840aec92e3554cf748aa7457edf43baffd1e0f8004547bda488d81f1d79d",
    "g2_block_000.csv": "45a84ecda5a1b313043ba2b1e87c8aeac11778bd1ddac029b177df781af30aff",
    "g2_block_001.csv": "4e92d19b91c6fe17aa778932c39416864b6af604da370277cbd93f848afb767d",
    "summary.json": "b0801c9d01622febb81ad75728c5d755ff14cc279c52c73c5e50eb763b863ff9",
}

# A staged attack recorded as CSV: the A-to-B path drops by 399 m between two
# remote-arm events 1.42 us apart, so the event sent first arrives second and
# the channel must re-sort. Heralding below 1 and a drifting clock exercise the
# thinning and the float branch of the clock model.
SCHEDULED_SOURCE = {
    "pair_rate_hz": 20000.0,
    "emission_jitter_sigma_ps": 150.0,
    "heralding_efficiency": 0.8,
}
SCHEDULED_CONFIG = {
    "duration_s": 4.0,
    "seed": 23,
    "block_s": 1.0,
    "alice_source": SCHEDULED_SOURCE,
    "bob_source": SCHEDULED_SOURCE,
    "bob_clock": {"offset_ps": 137000, "drift_ppb": 0.02},
    "channel": {"base_length_m": 1.9, "eve_length_ab_m": 400.0, "eve_length_ba_m": 1.0},
    "schedule": [
        {
            "time_s": 2.006517,
            "channel": {"base_length_m": 1.9, "eve_length_ab_m": 1.0, "eve_length_ba_m": 1.0},
        }
    ],
    "analysis": {"tau_min_ps": -200000, "tau_max_ps": 2400000, "bin_width_ps": 256},
}

SCHEDULED_DIGESTS = {
    "alice.csv": "3d55c5a7ce465a01ea639f6dc8907edd0ff18c1b4aeb4d5d19667bdbb1c22981",
    "bob.csv": "b22e4a66f2bca354fff61d5144a0c9ac0526deb9fa02ca6192c5d5719417d841",
    "estimates.json": "4743c771c5dc554f2e66e4579cb815b1000af3d43654a6d03bb2bedfff99cdd6",
    "g2_block_000.csv": "47174b4fb6b579348d42aec5123109331d63835378002e614bb5ecb8203b0979",
    "g2_block_001.csv": "2ed0b1cc184368dd171fa104d810b6e5b87eb3c5871510ba8106b6cd8d12140a",
    "g2_block_002.csv": "9def5004d9cc3889327d9b106347d34eecd7615555c6fe52b1159d2b624278fb",
    "g2_block_003.csv": "04c8695db8f407db6b76269fbc6924753a7ed817b1b074f686f93d9c35e82c81",
    "summary.json": "b292cbb38d7b3cc2e8f8d0a06e76fc61e8ed84e198f2173716aaa635ba29ea23",
}

# The benchmark's high_rate run (fig2c's channel, 100 kHz per source, realistic
# detectors, two blocks) shortened a hundredfold. At this rate most events of
# the first record have several partners in the g2 window.
HIGH_RATE_DETECTOR = {
    "jitter_sigma_ps": 40.0,
    "efficiency": 0.7,
    "dark_rate_hz": 1000.0,
    "dead_time_ps": 25000,
}

HIGH_RATE_DIGESTS = {
    "alice.tt": "5d47abe9195f2f631ce4d62bc414c1366a39fea9105d93588d81717f7014e8db",
    "bob.tt": "1d848a8fc15d0661784299c603308b9ba5241c5844bb403a63ad9b9cb4dca9b1",
    "estimates.json": "1051d8dbf3116bd651a02f7437e9a76e2642f08e1efff74382f8e1f97130b2f0",
    "g2_block_000.csv": "8f94604de1e8ecebb1f9493919f7522b09317d24691a02fb4164117e5e59b8c4",
    "g2_block_001.csv": "254ab7529b4bc44d7b1567aa39140449d671b9da63ba8812012943a3a5549caa",
    "summary.json": "18a69c9e47b18f8fa8f1575141b89b0af949aa6e27f2c472aa1d242d84955b9a",
}

# analyze_files on these tags writes the same histograms and estimates.
HIGH_RATE_ANALYZE_DIGESTS = {
    name: HIGH_RATE_DIGESTS[name]
    for name in ("estimates.json", "g2_block_000.csv", "g2_block_001.csv")
}

SMALL_TOMO_CONFIG = {"seed": 42, "attack": "none", "counts_per_setting": 2000.0, "reps": 4}

SMALL_TOMO_DIGESTS = {
    "counts_after.csv": "18d9b9d6ce15d48127ce750b5796271f87e707fdba498c0eed0a070fd631695c",
    "counts_before.csv": "d634a79e92857e1361f138def6ead7666c2e09f3645109e3b29b98af5e52df07",
    "fidelity_distribution.json": (
        "d8012beef88884a2406c2f56741bce863ba81d38e7b7e7d3eaa601708ab2b121"
    ),
    "rho_after.json": "5d7eec8c4041e3eefa30d5746d45f04d9f4d0775bd6b0d9869d55d08b3648920",
    "rho_before.json": "413b808b867068055ea035ba15a2a725b121b2e255896abc02ca49ccbcdd15c6",
    "summary.json": "075d9a4bfa61798da2ae493aef0ece9ef3e93c196a7559073a460f3e0cfe22be",
}


def dir_digest(path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_smoke_scenario_artifacts_match_golden(scenario_dir, tmp_path):
    run_scenario(scenario_dir / "smoke.json", tmp_path / "smoke")
    assert dir_digest(tmp_path / "smoke") == SMOKE_DIGESTS


def test_smoke_analyze_artifacts_match_golden(scenario_dir, tmp_path):
    run_scenario(scenario_dir / "smoke.json", tmp_path / "smoke")
    analyze_files(
        tmp_path / "smoke" / "alice.tt",
        tmp_path / "smoke" / "bob.tt",
        tmp_path / "analyze",
        SyncAnalysisParams(),
        block_s=40.0,
    )
    assert dir_digest(tmp_path / "analyze") == SMOKE_ANALYZE_DIGESTS


def test_detector_scenario_artifacts_match_golden(tmp_path):
    config = tmp_path / "detectors.json"
    config.write_text(json.dumps(DETECTOR_CONFIG))
    run_scenario(config, tmp_path / "run")
    assert dir_digest(tmp_path / "run") == DETECTOR_DIGESTS


def test_scheduled_csv_scenario_artifacts_match_golden(tmp_path):
    config = tmp_path / "scheduled.json"
    config.write_text(json.dumps(SCHEDULED_CONFIG))
    run_scenario(config, tmp_path / "run", tag_format="csv")
    assert dir_digest(tmp_path / "run") == SCHEDULED_DIGESTS


def test_high_rate_simulate_and_analyze_artifacts_match_golden(scenario_dir, tmp_path):
    fig2c = json.loads((scenario_dir / "fig2c.json").read_text())
    source = dict(fig2c["alice_source"], pair_rate_hz=100_000.0)
    config = dict(
        fig2c,
        duration_s=0.8,
        block_s=0.4,
        alice_source=source,
        bob_source=source,
        detectors={
            key: HIGH_RATE_DETECTOR
            for key in ("alice_local", "alice_remote", "bob_local", "bob_remote")
        },
    )
    (tmp_path / "high_rate.json").write_text(json.dumps(config))
    run_scenario(tmp_path / "high_rate.json", tmp_path / "run")
    analyze_files(
        tmp_path / "run" / "alice.tt",
        tmp_path / "run" / "bob.tt",
        tmp_path / "analyze",
        SyncAnalysisParams(),
        block_s=0.4,
    )
    assert dir_digest(tmp_path / "run") == HIGH_RATE_DIGESTS
    assert dir_digest(tmp_path / "analyze") == HIGH_RATE_ANALYZE_DIGESTS


def test_small_tomo_artifacts_match_golden(tmp_path):
    config = tmp_path / "tomo.json"
    config.write_text(json.dumps(SMALL_TOMO_CONFIG))
    run_tomo_scenario(config, tmp_path / "tomo")
    assert dir_digest(tmp_path / "tomo") == SMALL_TOMO_DIGESTS
