"""Calibration of the reported offset error bars against the planted truth.

Each block's offset estimate carries a sigma from the centroid fits. Over many
independent blocks, the z-scores (delta - truth) / sigma must look like draws
of a unit normal: mean near 0 and variance near 1.
"""
import dataclasses
import math

import numpy as np
from scipy import stats

from entsync.channel import Direction
from entsync.correlation import analyze_block
from entsync.scenario import load_timing_scenario, simulate_timing
from entsync.timetags import PS_PER_S

SEEDS = range(1, 31)


def test_offset_z_scores_are_calibrated(scenario_dir):
    smoke = load_timing_scenario(scenario_dir / "smoke.json")
    source = dataclasses.replace(smoke.alice_source, pair_rate_hz=2000.0)
    base = dataclasses.replace(
        smoke,
        duration_s=4.0,
        block_s=1.0,
        alice_source=source,
        bob_source=source,
        channel=load_timing_scenario(scenario_dir / "fig2c.json").channel,
    )
    # The delays the simulation applies, not the unrounded prediction.
    delays = {d: base.channel.delay_rounded_ps(d) for d in Direction}
    truth = (
        base.bob_clock.offset_ps
        - base.alice_clock.offset_ps
        + (delays[Direction.A_TO_B] - delays[Direction.B_TO_A]) / 2.0
    )
    block_ps = round(base.block_s * PS_PER_S)

    z = []
    for seed in SEEDS:
        sc = dataclasses.replace(base, seed=seed)
        alice, bob = simulate_timing(sc)
        for k in range(sc.n_blocks()):
            _, est = analyze_block(
                alice.timestamps_ps, bob.timestamps_ps, k, block_ps, sc.analysis
            )
            assert est is not None, f"seed {seed} block {k} gave no estimate"
            z.append((est.delta_ps - truth) / est.delta_sigma_ps)

    n = len(z)
    assert n == 4 * len(SEEDS)
    variance = float(np.var(z, ddof=1))
    lo, hi = (stats.chi2.ppf(q, n - 1) / (n - 1) for q in (0.0005, 0.9995))
    assert lo <= variance <= hi, f"z variance {variance:.3f} outside [{lo:.3f}, {hi:.3f}]"
    assert abs(float(np.mean(z))) <= 3.3 / math.sqrt(n)
