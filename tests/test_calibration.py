"""Offset estimates against the planted truth.

Each block's offset estimate carries a sigma from the centroid fits. Over many
independent blocks, the z-scores (delta - truth) / sigma must look like draws
of a unit normal: mean near 0 and variance near 1.

Two runs at one seed that differ only in a constant channel or a clock offset
see the same photons, because each arm's draws do not depend on the channel.
So per block, the difference of their estimates tests the paper's timing
claims far below a block's sigma (1.67 ps at fig3's rates).
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy import stats

from entsync.channel import ChannelConfig, Direction
from entsync.correlation import analyze_block
from entsync.scenario import Detectors, ScheduleEntry, load_timing_scenario, simulate_timing
from entsync.timetags import PS_PER_S, ClockModel, DetectorModel, PairSourceModel

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


# Metres per picosecond, and fig3's base fiber and group index.
C_M_PER_PS = 299_792_458e-12
BASE_M, GROUP_INDEX = 1.9, 1.5134
# k * bin_width_ps with k = 100 at fig3's 16 ps bins.
SHIFT_PS = 1600

# Tolerances per block, about twice the largest deviation measured over seeds
# 1-8 (10 blocks each) with this setup:
#   attack:    delta 0.054 ps, round trip 0.11 ps;
#   extension: delta 0.22 ps, round trip 0.44 ps;
#   shift:     0.0 ps for both, by either route;
#   swap:      delta(a, b) + delta(b, a) -0.102 to +0.049 ps, round trips 0.25 ps apart.
ATTACK_TOL_PS = (0.1, 0.2)
EXTENSION_TOL_PS = (0.4, 0.8)
SHIFT_TOL_PS = 1e-6
SWAP_TOL_PS = (0.2, 0.5)


def rounded_delay_ps(eve_length_m: float) -> int:
    return round((BASE_M + eve_length_m) * GROUP_INDEX / C_M_PER_PS)


@pytest.fixture(scope="module")
def same_seed_runs(scenario_dir):
    """Per-block (delta, round trip) of fig3's rates, 10 blocks of 40 s, seed 7.

    Each run has one constant channel, named by its extra lengths A-to-B /
    B-to-A in metres; "shifted" adds SHIFT_PS to the second record of the
    1 m / 1 m run, and "clock" adds it to bob_clock.offset_ps instead;
    "swapped" analyzes the 1 m / 1 m run with the two records exchanged.
    """
    fig3 = load_timing_scenario(scenario_dir / "fig3.json")
    base = dataclasses.replace(fig3, duration_s=400.0, schedule=())
    block_ps = round(base.block_s * PS_PER_S)

    def estimates(ab_m, ba_m, bob_shift_ps=0, swap=False, **changes):
        channel = dataclasses.replace(base.channel, eve_length_ab_m=ab_m, eve_length_ba_m=ba_m)
        alice, bob = simulate_timing(dataclasses.replace(base, channel=channel, **changes))
        records = (alice.timestamps_ps, bob.timestamps_ps + bob_shift_ps)
        first, second = records[::-1] if swap else records
        rows = []
        for k in range(base.n_blocks()):
            _, est = analyze_block(first, second, k, block_ps, base.analysis)
            assert est is not None, f"{ab_m} m / {ba_m} m block {k} gave no estimate"
            rows.append((est.delta_ps, est.round_trip_ps))
        return np.array(rows)

    shifted_clock = dataclasses.replace(
        base.bob_clock, offset_ps=base.bob_clock.offset_ps + SHIFT_PS
    )
    return {
        "1/1": estimates(1.0, 1.0),
        "11/1": estimates(11.0, 1.0),
        "6/6": estimates(6.0, 6.0),
        "shifted": estimates(1.0, 1.0, bob_shift_ps=SHIFT_PS),
        "clock": estimates(1.0, 1.0, bob_clock=shifted_clock),
        "swapped": estimates(1.0, 1.0, swap=True),
    }


def test_one_way_extension_moves_offset_by_half_the_delay_difference(same_seed_runs):
    d_ab = rounded_delay_ps(11.0) - rounded_delay_ps(1.0)
    diff = same_seed_runs["11/1"] - same_seed_runs["1/1"]
    assert d_ab / 2.0 == 25240.5
    assert np.abs(diff[:, 0] - d_ab / 2.0).max() <= ATTACK_TOL_PS[0]
    assert np.abs(diff[:, 1] - d_ab).max() <= ATTACK_TOL_PS[1]


def test_symmetric_extension_moves_only_the_round_trip(same_seed_runs):
    d_each = rounded_delay_ps(6.0) - rounded_delay_ps(1.0)
    diff = same_seed_runs["6/6"] - same_seed_runs["1/1"]
    assert np.abs(diff[:, 0]).max() <= EXTENSION_TOL_PS[0]
    assert np.abs(diff[:, 1] - 2 * d_each).max() <= EXTENSION_TOL_PS[1]


@pytest.mark.parametrize("run", ["shifted", "clock"])
def test_shifting_the_second_record_moves_only_the_offset(same_seed_runs, run):
    diff = same_seed_runs[run] - same_seed_runs["1/1"]
    assert np.abs(diff[:, 0] - SHIFT_PS).max() <= SHIFT_TOL_PS
    assert np.abs(diff[:, 1]).max() <= SHIFT_TOL_PS


def test_swapping_the_records_negates_the_offset(same_seed_runs):
    # tau = t_b - t_a changes sign, so the peaks trade places: delta(b, a) =
    # -delta(a, b), and the round trip stays. The blocks now follow the second
    # party's clock, 137 ns off the first's, so a few pairs change block.
    straight, swapped = same_seed_runs["1/1"], same_seed_runs["swapped"]
    assert np.abs(swapped[:, 0] + straight[:, 0]).max() <= SWAP_TOL_PS[0]
    assert np.abs(swapped[:, 1] - straight[:, 1]).max() <= SWAP_TOL_PS[1]


# Links drawn inside the default +-1 us window: at most 85 m of fiber each way
# at group index 2 (567 ns) plus a clock-offset difference of at most 300 ns
# puts each peak more than 100 ns inside it, and a base of at least 1.5 m keeps
# the peaks 10 ns apart, twice min_separation_ps. Emission jitter of at least
# 50 ps spreads each peak over several 16 ps bins, so binning moves no centroid.
LINKS = st.builds(
    ChannelConfig,
    base_length_m=st.floats(1.5, 45.0),
    eve_length_ab_m=st.floats(0.0, 40.0),
    eve_length_ba_m=st.floats(0.0, 40.0),
    group_index=st.floats(1.0, 2.0),
)


# Each example simulates a run, so a failing one is reported unshrunk.
@settings(
    max_examples=40, derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate]
)
@given(
    channel=LINKS,
    # Up to two changes of the link, each at the start of block 1 or 2 of 3.
    changes=st.dictionaries(st.sampled_from([1, 2]), LINKS, max_size=2),
    alice_offset_ps=st.integers(-150_000, 150_000),
    bob_offset_ps=st.integers(-150_000, 150_000),
    rate_hz=st.floats(2000.0, 4000.0),
    emission_sigma_ps=st.floats(50.0, 150.0),
    detector=st.builds(
        DetectorModel,
        jitter_sigma_ps=st.floats(0.0, 50.0),
        efficiency=st.floats(0.5, 1.0),
        dark_rate_hz=st.floats(0.0, 5000.0),
        dead_time_ps=st.integers(0, 100_000),
    ),
    seed=st.integers(0, 2**31),
)
def test_estimates_match_the_link_across_configurations(
    scenario_dir, channel, changes, alice_offset_ps, bob_offset_ps, rate_hz, emission_sigma_ps,
    detector, seed,
):
    smoke = load_timing_scenario(scenario_dir / "smoke.json")
    source = PairSourceModel(rate_hz, emission_sigma_ps)
    sc = dataclasses.replace(
        smoke,
        duration_s=3.0,
        block_s=1.0,
        seed=seed,
        alice_source=source,
        bob_source=source,
        channel=channel,
        schedule=tuple(ScheduleEntry(float(k), changes[k]) for k in sorted(changes)),
        alice_clock=ClockModel(alice_offset_ps),
        bob_clock=ClockModel(bob_offset_ps),
        detectors=Detectors(detector, detector, detector, detector),
    )
    # Each block's link: the last change at or before its start.
    links = [channel]
    for k in (1, 2):
        links.append(changes.get(k, links[-1]))
    alice, bob = simulate_timing(sc)
    block_ps = round(sc.block_s * PS_PER_S)
    assert sc.n_blocks() == len(links)
    for k, link in enumerate(links):
        # The rounded one-way delays of the block's link, computed here rather than by the model.
        d_ab, d_ba = (
            round((link.base_length_m + eve_m) * link.group_index / C_M_PER_PS)
            for eve_m in (link.eve_length_ab_m, link.eve_length_ba_m)
        )
        truth = bob_offset_ps - alice_offset_ps + (d_ab - d_ba) / 2.0
        _, est = analyze_block(alice.timestamps_ps, bob.timestamps_ps, k, block_ps, sc.analysis)
        assert est is not None, f"block {k} gave no estimate"
        # The round trip's sigma is twice delta's.
        bound = 4.0 * est.delta_sigma_ps
        assert abs(est.delta_ps - truth) <= bound
        assert abs(est.round_trip_ps - (d_ab + d_ba)) <= 2.0 * bound
