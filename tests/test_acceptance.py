"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own PASSED/FAILED verdicts.
"""
import hashlib
import math
import time

import numpy as np
import pytest

from entsync.correlation import SyncAnalysisParams, compute_g2, find_two_peaks
from entsync.polarization import (
    FaradayParams,
    apply_attack_full,
    apply_attack_naive_geometric,
    bell_psi_minus,
    phase_decomposition,
    state_fidelity,
)
from entsync.scenario import load_timing_scenario, run_scenario, run_tomo_scenario, simulate_timing
from entsync.tomography import CountsTable, DensityMatrix, expected_counts, fidelity, mle_reconstruct

from oracles import (
    dense_centers,
    dense_counts,
    fit_peak_gaussian,
    g2_bruteforce,
    random_density_matrix,
    random_pure_state,
)

HALF_TURN = FaradayParams()


def report(num: int, line: str):
    print(f"\ncriterion {num}: PASS - {line}")


@pytest.fixture(scope="module")
def fig3_run(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    start = time.perf_counter()
    summary = run_scenario(scenario_dir / "fig3.json", out)
    elapsed = time.perf_counter() - start
    return summary, elapsed


@pytest.fixture(scope="module")
def tomo_runs(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("tomo")
    start = time.perf_counter()
    full = run_tomo_scenario(scenario_dir / "tomo_full.json", out / "full")
    naive = run_tomo_scenario(scenario_dir / "tomo_naive.json", out / "naive")
    elapsed = time.perf_counter() - start
    return full, naive, elapsed


def test_criterion_1_asymmetric_attack_offset_error(fig3_run):
    summary, elapsed = fig3_run
    shift = summary["measured_shift_ps"]
    sigma = summary["shift_sigma_ps"]
    predicted = summary["predicted_shift_ps"]
    assert shift is not None and sigma is not None
    bound = 3.0 * sigma
    assert abs(shift - 25_240.0) <= bound
    assert abs(shift - predicted) <= bound
    assert elapsed < 30.0
    report(
        1,
        f"offset shift {shift:.2f} ps vs 25240 (predicted {predicted:.2f}), "
        f"3 sigma = {bound:.2f} ps, runtime {elapsed:.1f} s",
    )


def test_criterion_2_symmetric_extension_invariance(fig3_run):
    summary, _ = fig3_run
    seg_base, seg_ext = summary["segments"][0], summary["segments"][1]
    assert seg_base["n_blocks_used"] >= 3 and seg_ext["n_blocks_used"] >= 3
    rt_change = seg_ext["mean_round_trip_ps"] - seg_base["mean_round_trip_ps"]
    expected = 2.0 * 5.0 * 1.5134 / 0.000299792458
    assert abs(rt_change - expected) <= 50.0
    delta_change = seg_ext["mean_delta_ps"] - seg_base["mean_delta_ps"]
    delta_bound = 3.0 * math.hypot(seg_base["sem_delta_ps"], seg_ext["sem_delta_ps"])
    assert abs(delta_change) < delta_bound
    report(
        2,
        f"round trip grew {rt_change:.1f} ps (expected {expected:.1f} +- 50), "
        f"offset moved {delta_change:.2f} ps < {delta_bound:.2f} ps",
    )


def test_criterion_3_peak_morphology(scenario_dir):
    sc = load_timing_scenario(scenario_dir / "fig2a.json")
    alice, bob = simulate_timing(sc)
    hist = compute_g2(
        alice.timestamps_ps, bob.timestamps_ps, sc.analysis, int(sc.duration_s * 1e12)
    )
    peaks = find_two_peaks(hist, sc.analysis)
    fwhms = []
    for tau in (peaks.tau_ab_ps, peaks.tau_ba_ps):
        fit = fit_peak_gaussian(hist, tau, 1500.0)
        assert 450.0 <= fit["fwhm_ps"] <= 550.0
        fwhms.append(fit["fwhm_ps"])
    centers = dense_centers(hist)
    baseline_mask = (np.abs(centers - peaks.tau_ab_ps) > 3000.0) & (
        np.abs(centers - peaks.tau_ba_ps) > 3000.0
    )
    baseline = float((dense_counts(hist)[baseline_mask] / hist.accidentals_per_bin).mean())
    assert 0.9 <= baseline <= 1.1
    report(
        3,
        f"peak FWHMs {fwhms[0]:.1f} / {fwhms[1]:.1f} ps in [450, 550], "
        f"baseline g2 {baseline:.4f} in [0.9, 1.1]",
    )


def test_criterion_4_phase_cancellation():
    start = time.perf_counter()
    expected_total = HALF_TURN.phase_kn0d_rad - math.pi
    rng = np.random.default_rng(41)
    worst = 0.0
    for theta in rng.uniform(0.0, math.pi, 100):
        decomp = phase_decomposition(HALF_TURN, float(theta))
        worst = max(worst, abs(decomp.total_rad - expected_total))
    assert worst < 1e-10

    singlet = bell_psi_minus()
    f = state_fidelity(apply_attack_full(singlet, HALF_TURN), singlet)
    assert abs(f - 1.0) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        4,
        f"total phase theta-independent to {worst:.2e} rad over 100 angles, "
        f"singlet fidelity 1 - {abs(f - 1.0):.2e}, runtime {elapsed:.2f} s",
    )


def test_criterion_5_naive_model_falsifiability(tomo_runs):
    singlet = bell_psi_minus()
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 101):
        measured = state_fidelity(apply_attack_naive_geometric(singlet, float(theta)), singlet)
        closed_form = math.cos(math.pi * (1.0 - math.cos(theta))) ** 2
        worst = max(worst, abs(measured - closed_form))
    assert worst < 1e-10

    full, naive, elapsed = tomo_runs
    assert naive["fidelity_mc_mean"] < 0.05
    assert full["fidelity_mc_mean"] > 0.99
    assert naive["n_mc_samples"] == 100 and full["n_mc_samples"] == 100
    assert elapsed < 300.0
    report(
        5,
        f"fidelity law max error {worst:.2e}; tomography means: naive "
        f"{naive['fidelity_mc_mean']:.4f} < 0.05, full {full['fidelity_mc_mean']:.4f} > 0.99, "
        f"runtime {elapsed:.0f} s",
    )


def test_criterion_6_tomography_self_consistency():
    rng = np.random.default_rng(61)
    worst = 1.0
    for i in range(20):
        if i % 2 == 0:
            rho = DensityMatrix.from_pure(random_pure_state(rng))
        else:
            rho = DensityMatrix(random_density_matrix(rng, rank=int(rng.integers(2, 5))))
        counts = CountsTable(np.rint(expected_counts(rho, 1e6)).astype(np.int64))
        f = fidelity(mle_reconstruct(counts), rho)
        worst = min(worst, f)
        assert f > 0.999
    report(6, f"20 random states forward-modeled at n=1e6; worst fidelity {worst:.6f} > 0.999")


def test_criterion_7_g2_oracle_equivalence():
    rng = np.random.default_rng(71)
    for trial in range(50):
        n_a = int(rng.integers(0, 1001))
        n_b = int(rng.integers(1, 1001))
        span = int(rng.integers(10_000, 200_000))
        a = np.sort(rng.integers(-span, span, n_a))
        b = np.sort(rng.integers(-span, span, n_b))
        bin_width = int(rng.choice([1, 7, 16, 50]))
        tau_min = int(rng.integers(-5000, 0))
        tau_max = tau_min + int(rng.integers(100, 10_000))
        params = SyncAnalysisParams(
            tau_min_ps=tau_min, tau_max_ps=tau_max, bin_width_ps=bin_width
        )
        hist = compute_g2(a, b, params, 2 * span)
        reference = g2_bruteforce(a, b, tau_min, tau_max, bin_width)
        assert np.array_equal(dense_counts(hist), reference), f"mismatch on trial {trial}"
    report(7, "sweep histogram matches all-pairs counting bin-exactly on 50 random pairs")


def test_criterion_8_determinism(scenario_dir, tmp_path):
    def digest(directory):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if p.is_file()
        }

    run_scenario(scenario_dir / "smoke.json", tmp_path / "one")
    run_scenario(scenario_dir / "smoke.json", tmp_path / "two")
    first, second = digest(tmp_path / "one"), digest(tmp_path / "two")
    assert first == second and len(first) >= 6
    report(8, f"two smoke-scenario runs produced byte-identical directories ({len(first)} files)")
