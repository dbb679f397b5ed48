"""Golden sha256 digests of every artifact of small end-to-end runs.

Any refactor that moves a single output byte fails here; a change that is
meant to alter an output format updates these digests and says so. The
tomography digests depend on the floating-point results of the MLE fits; they
were recorded with Python 3.11, numpy 2.4 and scipy 1.17 on x86-64, and a
different numerical stack may legitimately change them. The fitted tomography
digests (the two rho files, the fidelity distribution and the summary) were
last re-recorded when the fit moved from the lower-triangular factor to a full
complex factor, which reaches a higher likelihood, and the summary gained
n_mc_failed; the counts tables did not change. The timing digests
were last re-recorded together when each arm's source jitter and heralding
moved into its detector's one thinning and one Gaussian draw. The scheduled
run's bob.csv, the one record read by a drifting clock, was re-recorded alone
when a clock stopped scaling the whole time in float64 and rounded only its
drift term: 20 of its 128 606 readings moved by 1 ps to the exact reading.
Every run's estimates, summary and histograms (not its tags) were re-recorded
when a bin's position moved from its interval midpoint to the centre of the
integer differences it holds, half a picosecond lower. Every run's histograms
alone were then re-recorded when the files stopped listing empty bins: each
is its former rows with a count of 0 dropped, so a fig3 block's file holds
about 200 rows, not 125 000.
"""
import hashlib
import json

from entsync.correlation import SyncAnalysisParams
from entsync.scenario import analyze_files, run_scenario, run_tomo_scenario

SMOKE_DIGESTS = {
    "alice.tt": "763cc2ad50f49ecc4c820b226fa47acdda4bb781826285b5a07e919dcab09110",
    "bob.tt": "cc706b5187275aecc0c417a6b811325da1766868e22378a1b211bdfb808721eb",
    "estimates.json": "eb0ec86aa7a41373eda5607e6578858ae6d2a3d55b662b363bd3af560ec7ee00",
    "g2_block_000.csv": "3056134b7ce1d3489d470a1112c0794927654129c97d0d7867249f3668e0927c",
    "g2_block_001.csv": "2be4c2965535e857bb474bf5881f15a43f669b9d8e9a1d33d0daf0155a613ddc",
    "summary.json": "cf12691494d945f8d3900b0f52939cfb39fa04e8ea38b20bcf3f3feeba9e8aa1",
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
    "alice.tt": "0c3601ff5525a4cea96e0a274e2cd0012e3741ff361b284166ae3f8a81544640",
    "bob.tt": "f04370a1385189cfe5bcc982f8f86919cf061780f7e35528a8b15ae7b3c3a9ec",
    "estimates.json": "f8a9fe68598a0bfb984595a7a7a2ca47363195f31d0685a18ba6681c291f07c7",
    "g2_block_000.csv": "8bebff926be58f3fb4cbd0967f314f25da771b5adceab45fa1ddb86d90512b27",
    "g2_block_001.csv": "e0e171c5fc39fce903dcc7a18f89ba29bb8cd78cc6c7fd1a3b770c2a98f036f7",
    "summary.json": "2ba29cc6e3e5671dd8a61364e52f6fe51ba137d195715bd5b0c6994c1a132168",
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
    "alice.csv": "5d37a4cc7a53f61e39e6fd489f9300bdf21a3ffd6217f5ac8fb8de7aa57f6f2a",
    "bob.csv": "cbfea6396b9efce1102e34337868b08328681b0307d6b2ef1808b652f822b66a",
    "estimates.json": "a296a3d871693dd068414add9ca769cb3d6909b4d03c79c42c4ab7a367220473",
    "g2_block_000.csv": "25c799b83a058fa0c4bdacf980aa21ee9a0a341c596befe1b3ad7711985a2844",
    "g2_block_001.csv": "3703f7faba3dd72fc445b783bc90cb73bfa245448a106374dcaa82daecc3b2f2",
    "g2_block_002.csv": "5ad5a609af0bd609b42c07ea622b9de2680a30a1dcba640311117c45d1376d6f",
    "g2_block_003.csv": "8f73d90a26dc6cf338e11ab2132b09f3f71252a740e86d45f069b7c5932c8559",
    "summary.json": "e039241b020ea321b90584141c5b0ca9c58555416bc54efa2c2d95d0c71c1d13",
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
    "alice.tt": "af48ee72fcdd1bc3d92ae647bbcc7a10fc0df25971e01f7a1d3e16393a723417",
    "bob.tt": "0421a45141fc16b36a292cb8d3228a443854b0785fce8960f6cfeed56a923df6",
    "estimates.json": "151e10c8178a4763667a5feba4a614117a16f50a203ac40c2e0e5f3dafb32320",
    "g2_block_000.csv": "061f199fd27ffeb867395649c54dbd1a786c681728f32b0ef194320636691743",
    "g2_block_001.csv": "a051fdb150c1d4f626001da5b26c8c62d655b99e7d3ce89342b2c24a80e6fe50",
    "summary.json": "4016f4499054dbd85a82ba7dc8bdbd6c2b97773f884e227848c24f165ac67916",
}

# analyze_files on these tags writes the same histograms and estimates.
HIGH_RATE_ANALYZE_DIGESTS = {
    name: HIGH_RATE_DIGESTS[name]
    for name in ("estimates.json", "g2_block_000.csv", "g2_block_001.csv")
}

SMALL_TOMO_CONFIG = {"seed": 42, "attack": "none", "counts_per_setting": 2000.0, "reps": 4}

# The Monte Carlo refits start at the point estimates, so they converge to
# round-off-different optima: the samples moved by at most 7.8e-8 and the mean
# by 1.8e-8 when that start replaced the least-squares one, and only the two
# files that hold them were re-recorded. The tables and the point fits kept
# their digests.
SMALL_TOMO_DIGESTS = {
    "counts_after.csv": "18d9b9d6ce15d48127ce750b5796271f87e707fdba498c0eed0a070fd631695c",
    "counts_before.csv": "d634a79e92857e1361f138def6ead7666c2e09f3645109e3b29b98af5e52df07",
    "fidelity_distribution.json": (
        "ebd174302455144cbb8d1964510cf105618dcae16c39819ac5d11dcef33dc987"
    ),
    "rho_after.json": "3ee39e80095c2eca01da7d264a940e9421e0f55e8df053596e46b45fb569b49c",
    "rho_before.json": "dd182f27246c13eb60e93742531419cd38576642a911d58e59ad778d362f4acf",
    "summary.json": "e27174662d84009239d76a286010751fb02d5a91e5c144e331a48f7e2c74c6ab",
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
