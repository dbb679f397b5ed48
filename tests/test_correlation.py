import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entsync
import entsync.correlation
from entsync.channel import ChannelConfig
from entsync.correlation import (
    MAX_G2_BINS,
    _background_stats,
    _grid_starts,
    _local_maxima_above,
    PeakPair,
    SyncAnalysisParams,
    analyze_block,
    compute_g2,
    estimate_sync,
    find_two_peaks,
    write_estimates_json,
    write_histogram_csv,
)
from entsync.errors import ConfigError, PeaksNotFoundError
from entsync.scenario import ScheduleEntry, TimingScenario, analyze_blocks, simulate_timing
from entsync.timetags import _TEXT_ROWS, PS_PER_S, ClockModel, PairSourceModel, TimeTagStream

from oracles import (
    dense_counts,
    find_two_peaks_reference,
    fit_peak_gaussian,
    g2_bruteforce,
    histogram_csv_reference,
    histogram_from_dense,
    local_maxima_reference,
)

PARAMS = SyncAnalysisParams()


@st.composite
def g2_records(draw):
    """Small records with tied timestamps and events on the window's edges.

    Returns (a, b, tau_min, tau_max, bin_width). The timestamps come from a
    range not much wider than the window, so ties within and across the
    records are common and many events have several pairs.
    """
    bin_width = draw(st.integers(1, 8))
    tau_min = draw(st.integers(-40, 20))
    tau_max = tau_min + draw(st.integers(1, 48))
    hi_edge = tau_min + math.ceil((tau_max - tau_min) / bin_width) * bin_width
    stamps = st.lists(st.integers(-60, 60), max_size=24)
    a, b = draw(stamps), draw(stamps)
    if a:
        # The first tau in the window, the last one and the first past it.
        for i in draw(st.lists(st.integers(0, len(a) - 1), max_size=4)):
            b += [a[i] + tau_min, a[i] + hi_edge - 1, a[i] + hi_edge]
        # One event with more pairs than the largest chunk has events.
        if draw(st.booleans()):
            t = a[draw(st.integers(0, len(a) - 1))]
            b += [t + tau_min + k % (hi_edge - tau_min) for k in range(12)]
    return a, b, tau_min, tau_max, bin_width


@st.composite
def grid_queries(draw):
    """Window starts ``q`` and a slice ``b`` of the second record, as `_pair_bins` makes them.

    Returns (q, b), each sorted, with q[0] <= b[0] and b[-1] past q[-1]. The
    span is either a few picoseconds, so that ties within and across the two
    are common, or up to the 2**64 - 2 ps a chunk's window starts and ends
    can cover. A run of up to 3 000 equal events of b outlasts the grid's steps.
    """
    lo = draw(st.integers(-(2**63) + 1, 2**63 - 2))
    hi = min(2**63 - 1, lo + draw(st.one_of(st.integers(1, 64), st.integers(1, 2**64))))
    q = draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=30))
    q0 = min(q)
    b = draw(st.lists(st.integers(q0, hi - 1), max_size=30))
    if draw(st.booleans()):
        tie = draw(st.integers(q0, hi - 1))
        b += [tie] * draw(st.integers(1, 3000))
        q += [tie] + [tie + 1] * (tie + 1 < hi)
    # Queries on the events of b and events on the queries.
    q += draw(st.lists(st.sampled_from(b), max_size=4)) if b else []
    b += draw(st.lists(st.sampled_from(q), max_size=4))
    return sorted(q), sorted(b) + [hi]


def window(tau_min_ps, tau_max_ps, bin_width_ps):
    return SyncAnalysisParams(
        tau_min_ps=tau_min_ps, tau_max_ps=tau_max_ps, bin_width_ps=bin_width_ps
    )


def times(values):
    return np.asarray(values, dtype=np.int64)


def make_stream(timestamps):
    return TimeTagStream(times(timestamps), np.zeros(len(timestamps), dtype=np.uint32))


def small_scenario(**overrides):
    defaults = dict(
        duration_s=80.0,
        seed=5,
        alice_source=PairSourceModel(200.0, 150.0),
        bob_source=PairSourceModel(200.0, 150.0),
        bob_clock=ClockModel(offset_ps=137000),
        channel=ChannelConfig(base_length_m=1.9, eve_length_ab_m=1.0, eve_length_ba_m=1.0),
    )
    defaults.update(overrides)
    return TimingScenario(**defaults)


class TestComputeG2:
    def test_single_pair_lands_in_expected_bin(self):
        hist = compute_g2(times([0]), times([100]), window(0, 200, 16), 1_000)
        assert hist.n_bins == 13  # ceil(200 / 16)
        assert hist.counts.sum() == 1
        assert dense_counts(hist)[100 // 16] == 1

    def test_counts_cover_whole_bins_past_tau_max(self):
        # The last bin extends to tau_min + n_bins * width even when tau_max
        # is not a multiple of the bin width.
        hist = compute_g2(times([0]), times([205]), window(0, 200, 16), 1_000)
        assert dense_counts(hist)[12] == 1

    def test_window_is_half_open(self):
        hist = compute_g2(times([0]), times([-1, 0, 31, 32]), window(0, 32, 16), 100)
        assert list(dense_counts(hist)) == [1, 1]

    def test_empty_stream_gives_zero_counts(self):
        hist = compute_g2(times([]), times([1, 2]), window(0, 100, 10), 100)
        assert hist.counts.sum() == 0
        assert hist.n_a == 0 and hist.accidentals_per_bin == 0.0

    def test_invalid_window_rejected(self):
        # compute_g2 takes its window from SyncAnalysisParams, which rejects these.
        with pytest.raises(ConfigError):
            window(10, 10, 16)
        with pytest.raises(ConfigError):
            window(0, 10, 0)

    def test_window_edges_reach_the_timestamp_range(self):
        # The last timestamp below 2**62 plus the largest window end is int64's maximum.
        edge = 2**62 - 1
        hist = compute_g2(times([edge]), times([edge]), window(-(2**62), 2**62, 2**60), 1)
        assert list(dense_counts(hist)) == [0, 0, 0, 0, 1, 0, 0, 0]
        for bounds in ((0, 2**62 + 1, 1), (0, 2**62, 3)):
            with pytest.raises(ConfigError):
                window(*bounds)

    def test_bin_count_is_capped(self):
        # 2 * 10**12 one-ps bins would be 14.6 TiB of counts; no histogram is built here.
        cap = "bin_width_ps must split the g2 window into at most 2\\*\\*22 bins"
        with pytest.raises(ConfigError, match=cap):
            window(-(10**12), 10**12, 1)
        with pytest.raises(ConfigError, match=cap):
            window(0, MAX_G2_BINS + 1, 1)
        assert window(0, MAX_G2_BINS + 1, 2).bin_width_ps == 2
        assert window(-MAX_G2_BINS, 0, 1).tau_min_ps == -MAX_G2_BINS

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_a=st.integers(min_value=0, max_value=300),
        n_b=st.integers(min_value=0, max_value=300),
        bin_width=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_reference(self, seed, n_a, n_b, bin_width):
        rng = np.random.default_rng(seed)
        a = times(np.sort(rng.integers(-50_000, 50_000, n_a)))
        b = times(np.sort(rng.integers(-50_000, 50_000, n_b)))
        tau_min, tau_max = -4096, 4096
        hist = compute_g2(a, b, window(tau_min, tau_max, bin_width), 100_000)
        reference = g2_bruteforce(a, b, tau_min, tau_max, bin_width)
        assert np.array_equal(dense_counts(hist), reference)

    @pytest.mark.parametrize("chunk", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunked_sweep_matches_bruteforce(self, monkeypatch, chunk, seed):
        # Dense records, so every chunk edge falls inside runs of coincidences.
        monkeypatch.setattr(entsync.correlation, "_G2_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        a = times(np.sort(rng.integers(0, 20_000, 40)))
        b = times(np.sort(rng.integers(0, 20_000, 60)))
        hist = compute_g2(a, b, window(-3000, 3000, 32), 20_000)
        assert hist.counts.dtype == np.int64
        assert np.array_equal(dense_counts(hist), g2_bruteforce(a, b, -3000, 3000, 32))

    # At 1 ps every block with events on both sides counts dense; at 1 000 ps
    # many take the sparse branch.
    @pytest.mark.parametrize(
        ("chunk", "duration_ps"),
        [(1, 1_000), (3, 1_000), (8, 1_000), (1, 1), (3, 1), (8, 1)],
        ids=["1", "3", "8", "1-dense", "3-dense", "8-dense"],
    )
    @given(records=g2_records())
    # Either record empty; one event with more pairs than any chunk has events.
    @example(records=([], [0, 5], -4, 8, 2))
    @example(records=([0, 5], [], -4, 8, 2))
    @example(records=([3], [3 + k for k in range(-4, 8)], -4, 8, 1))
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_bruteforce_on_edges_and_ties(self, chunk, duration_ps, records):
        a, b, tau_min, tau_max, bin_width = records
        a, b = times(sorted(a)), times(sorted(b))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(entsync.correlation, "_G2_CHUNK", chunk)
            hist = compute_g2(a, b, window(tau_min, tau_max, bin_width), duration_ps)
        assert np.array_equal(dense_counts(hist), g2_bruteforce(a, b, tau_min, tau_max, bin_width))

    @given(starts=grid_queries())
    # One query; the widest span a chunk can have, from -(2**63 - 1) to 2**63 - 1.
    @example(starts=([5], [9]))
    @example(starts=([-(2**63) + 1, -(2**63) + 1, 0], [-(2**63) + 1, 1, 2**63 - 1]))
    # 3 000 ties before a query in its 512 ps cell, more than the grid's steps
    # pass: the binary search takes them.
    @example(starts=([0, 2], [1] * 3000 + [10**6]))
    @settings(max_examples=200, deadline=None)
    def test_grid_starts_match_binary_search(self, starts):
        q, b = times(starts[0]), times(starts[1])
        assert np.array_equal(_grid_starts(b, q), np.searchsorted(b, q))

    def test_records_spanning_the_timestamp_range_stay_exact(self):
        # One chunk spans almost 2**63 ps. After its last pair, the first event
        # meets no b event before the chunk's last window end, which lies more
        # than 2**63 ps after it.
        edge = 2**62 - 1
        a = times([-edge, -edge, 0, edge])
        b = times([-edge, -edge + 7, -(2**61)])
        tau_min, tau_max, bin_width = -(2**61), 2**61, 2**58
        hist = compute_g2(a, b, window(tau_min, tau_max, bin_width), 1_000)
        expected = g2_bruteforce(a, b, tau_min, tau_max, bin_width)
        assert expected.sum() == 7
        assert np.array_equal(dense_counts(hist), expected)

    def test_sweep_memory_does_not_grow_with_block_length(self, traced_peak):
        # Two records at a 1 us mean gap, one window's worth of pairs per event.
        rng = np.random.default_rng(4)
        peaks = []
        for n in (200_000, 800_000):
            a, b = (np.sort(rng.integers(0, n * 10**6, n)) for _ in range(2))
            peak, hist = traced_peak(compute_g2, a, b, PARAMS, n * 10**6)
            assert hist.counts.sum() > n
            peaks.append(peak)
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("side", ["sparse", "dense"])
    def test_counting_follows_the_accidental_rate(self, traced_peak, side):
        # 200 x 200 singles over 1 ps bins: below one accidental per bin when
        # the duration exceeds 40 000 ps. Only the dense side makes an array of
        # all 80 000 bins (640 KB); both must give the all-pairs counts.
        rng = np.random.default_rng(8)
        a, b = (times(np.sort(rng.integers(0, 2_000_000, 200))) for _ in range(2))
        duration_ps = 200 * 200 * 1 + (side == "sparse")
        params = window(-40_000, 40_000, 1)
        peak, hist = traced_peak(compute_g2, a, b, params, duration_ps)
        assert (peak < 80_000 * 8 // 4) if side == "sparse" else (peak >= 80_000 * 8)
        assert hist.n_bins == 80_000
        assert hist.bins.dtype == np.int64 and hist.counts.dtype == np.int64
        assert np.all(np.diff(hist.bins) > 0) and np.all(hist.counts > 0)
        assert 0 <= hist.bins[0] and hist.bins[-1] < hist.n_bins
        assert np.array_equal(dense_counts(hist), g2_bruteforce(a, b, -40_000, 40_000, 1))

    def test_independent_poisson_streams_normalize_to_one(self):
        rng = np.random.default_rng(31)
        n = 1_000_000  # 100 kHz for 10 s
        a = times(np.rint(np.sort(rng.random(n)) * 1e13))
        b = times(np.rint(np.sort(rng.random(n)) * 1e13))
        hist = compute_g2(a, b, PARAMS, 10**13)
        total = hist.counts.sum()
        g2 = dense_counts(hist) / hist.accidentals_per_bin
        assert abs(g2.mean() - 1.0) < 3.0 / np.sqrt(total)

    def test_exchange_antisymmetry_bin_reversal(self):
        rng = np.random.default_rng(3)
        a = times(np.sort(rng.integers(0, 100_000, 400)))
        b = times(np.sort(rng.integers(0, 100_000, 400)))
        half_span = 512
        ab = compute_g2(a, b, window(-half_span, half_span, 1), 100_000)
        ba = compute_g2(b, a, window(-half_span, half_span, 1), 100_000)
        # tau = -half_span maps to +half_span, outside the window, so compare
        # interior bins only.
        assert np.array_equal(dense_counts(ab)[1:], dense_counts(ba)[1:][::-1])

    def test_normalization_formula(self):
        a = times([0, 500, 900])
        b = times([100, 450])
        hist = compute_g2(a, b, window(-1000, 1000, 50), 10_000)
        assert hist.accidentals_per_bin == 3 * 2 * 50 / 10_000
        assert hist.n_a == 3 and hist.n_b == 2 and hist.duration_ps == 10_000


@st.composite
def planted_blocks(draw):
    """(a, b, params, block_ps): two planted pair sets plus uniform noise in one small block.

    Each pair set puts a jittered copy of some of a's events into b at its own
    delay, one after a and one before it. The noise and pair counts reach from
    none at all to more than one accidental per bin, so both of compute_g2's
    ways of counting are swept, across small peak-search settings.
    """
    block_ps = 50_000
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, block_ps, draw(st.integers(0, 100)))
    b = [rng.integers(-2_000, block_ps + 2_000, draw(st.integers(0, 100)))]
    for delay in (draw(st.integers(200, 1_800)), -draw(st.integers(200, 1_800))):
        sent = a[: draw(st.integers(0, a.size))]
        jitter = np.rint(rng.normal(0.0, draw(st.sampled_from([0.0, 5.0, 40.0])), sent.size))
        b.append(sent + delay + jitter.astype(np.int64))
    params = SyncAnalysisParams(
        tau_min_ps=-2_000,
        tau_max_ps=2_000,
        bin_width_ps=draw(st.integers(1, 16)),
        min_separation_ps=draw(st.sampled_from([0, 16, 320])),
        threshold_sigma=draw(st.sampled_from([0.0, 1.0, 2.0, 5.0])),
        centroid_halfwidth_bins=draw(st.integers(1, 6)),
    )
    return times(np.sort(a)), times(np.sort(np.concatenate(b))), params, block_ps


class TestAnalyzeBlock:
    @given(block=planted_blocks())
    @settings(max_examples=200, deadline=None)
    def test_every_swept_histogram_is_searched_and_written_cleanly(self, block):
        # Warnings fail this suite, so a centroid window without weight or a g2
        # over no singles, which divide by 0, cannot pass unseen.
        a, b, params, block_ps = block
        hist, estimate = analyze_block(a, b, 0, block_ps, params)
        try:
            expected = estimate_sync(find_two_peaks_reference(hist, params))
        except PeaksNotFoundError:
            expected = None
        assert estimate == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.csv"
            write_histogram_csv(hist, path)
            assert path.read_bytes() == histogram_csv_reference(hist)

    def test_block_edges_are_half_open(self):
        # Two 1000 ps blocks. The window's bins end at hi_edge = 300, past
        # tau_max = 290; a's event at 1000 sits exactly on block 0's end.
        params = window(-300, 290, 50)
        a = times([0, 400, 999, 1000, 1700])
        b = times([-301, -300, 100, 699, 700, 1000, 1250, 1298, 1299, 1300, 2200])
        hists = [analyze_block(a, b, k, 1_000, params)[0] for k in (0, 1)]
        # Block k keeps a in [t0, t1) and b in [t0 - 300, t1 + 300).
        assert [h.n_a for h in hists] == [3, 2]
        assert [h.n_b for h in hists] == [8, 7]
        for k, hist in enumerate(hists):
            a_blk = a[(a >= 1_000 * k) & (a < 1_000 * (k + 1))]
            assert np.array_equal(dense_counts(hist), g2_bruteforce(a_blk, b, -300, 290, 50))
        total = sum(dense_counts(h) for h in hists)
        assert np.array_equal(total, g2_bruteforce(a, b, -300, 290, 50))

    def test_sparse_block_work_does_not_grow_with_n_bins(self, traced_peak):
        # 300 events a second with two partners each, in a window of nearly 2**22
        # bins: one dense array of them would be 32 MiB.
        rng = np.random.default_rng(12)
        a = np.sort(rng.integers(0, 10**12, 300))
        jitter = np.rint(rng.normal(0.0, 150.0, (2, 300))).astype(np.int64)
        b = np.sort(np.concatenate([a + 30_000 + jitter[0], a - 20_000 + jitter[1]]))
        params = SyncAnalysisParams(tau_min_ps=-(2**25), tau_max_ps=2**25 - 128)
        hist = compute_g2(a, b, params, 10**12)
        assert hist.n_bins == 2**22 - 8 and hist.accidentals_per_bin < 1

        def block():
            return find_two_peaks(compute_g2(a, b, params, 10**12), params)

        peak, peaks = traced_peak(block)
        assert peak < 1 << 20
        assert abs(peaks.tau_ab_ps - 30_000) < 50 and abs(peaks.tau_ba_ps + 20_000) < 50


def test_timing_layers_import_without_scipy():
    code = (
        "import sys, entsync.timetags, entsync.channel, entsync.correlation; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(entsync.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


class TestLocalMaxima:
    @given(
        counts=st.lists(st.integers(min_value=0, max_value=4), max_size=60),
        threshold=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
    )
    # Plateaus at both edges and in the middle.
    @example(counts=[3, 3, 1, 4, 4, 4, 2, 5, 5], threshold=0.0)
    @example(counts=[2, 2, 2, 2, 2], threshold=0.0)
    @example(counts=[], threshold=0.0)
    @example(counts=[3], threshold=0.0)
    @example(counts=[1, 3], threshold=0.0)
    @example(counts=[3, 1], threshold=0.0)
    # The threshold equals the middle plateau's value, so only the last peak counts.
    @example(counts=[0, 2, 2, 0, 3, 0], threshold=2.0)
    # Peaks and a plateau between unheld bins, and a held edge bin.
    @example(counts=[4, 0, 3, 0, 0, 2, 2, 0, 1], threshold=0.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_find_peaks_above_threshold(self, counts, threshold):
        x = np.asarray(counts, dtype=np.int64)
        found, heights = _local_maxima_above(histogram_from_dense(0, 16, x, 1, 1, 1), threshold)
        assert np.array_equal(found, local_maxima_reference(x, threshold))
        assert np.array_equal(heights, x[found])


class TestBackgroundStats:
    @given(counts=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
    # Odd and even bin counts, all bins empty, and every bin held.
    @example(counts=[0])
    @example(counts=[0, 0, 0, 0])
    @example(counts=[3, 8, 1])
    @example(counts=[1, 2, 3, 4])
    @example(counts=[0, 7, 2, 9, 0, 0])
    @example(counts=[0, 5, 0, 1, 0, 0, 4])
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_median_and_mad(self, counts):
        dense = np.asarray(counts, dtype=np.int64)
        med = float(np.median(dense))
        mad = float(np.median(np.abs(dense - med)))
        expected = (med, max(1.4826 * mad, math.sqrt(med + 1.0)))
        assert _background_stats(histogram_from_dense(0, 16, dense, 1, 1, 1)) == expected


@st.composite
def peak_histograms(draw):
    """Dense counts of a low background with up to four plateaus (1-4 bins wide), some
    on the edge bins and some between empty bins."""
    n = draw(st.integers(1, 150))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 4))):
        start, width = draw(st.integers(0, n - 1)), draw(st.integers(1, 4))
        counts[start : start + width] = [draw(st.integers(3, 60))] * len(counts[start : start + width])
        if draw(st.booleans()):
            for i in (start - 1, start + width):
                if 0 <= i < n:
                    counts[i] = 0
    return counts


class TestFindTwoPeaks:
    @given(
        counts=peak_histograms(),
        threshold_sigma=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
        min_separation_ps=st.sampled_from([0, 16, 48, 320]),
        halfwidth=st.integers(1, 6),
        # A pair needs an event on each side, so counts never come without singles.
        n_singles=st.integers(1, 40),
    )
    # Two peaks between empty bins; two peaks on the edge bins.
    @example(counts=[1, 0, 9, 0, 1, 1, 0, 7, 7, 0, 1], threshold_sigma=2.0,
             min_separation_ps=16, halfwidth=2, n_singles=10)
    @example(counts=[9, 1, 0, 1, 0, 1, 8], threshold_sigma=1.0,
             min_separation_ps=0, halfwidth=3, n_singles=10)
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(
        self, counts, threshold_sigma, min_separation_ps, halfwidth, n_singles
    ):
        params = SyncAnalysisParams(
            threshold_sigma=threshold_sigma,
            min_separation_ps=min_separation_ps,
            centroid_halfwidth_bins=halfwidth,
        )
        hist = histogram_from_dense(-808, 16, counts, n_singles, n_singles, 1_000)
        try:
            expected = find_two_peaks_reference(hist, params)
        except PeaksNotFoundError:
            with pytest.raises(PeaksNotFoundError):
                find_two_peaks(hist, params)
        else:
            assert find_two_peaks(hist, params) == expected

    def synthetic_histogram(self, seed=29, amp_hi=4000.0, amp_lo=3000.0, background=5.0):
        centers = np.arange(125_000) * 16 - 1_000_000 + 8.0
        expected = (
            background
            + amp_hi * np.exp(-0.5 * ((centers - 30_000) / 212.0) ** 2)
            + amp_lo * np.exp(-0.5 * ((centers + 20_000) / 212.0) ** 2)
        )
        counts = np.random.default_rng(seed).poisson(expected).astype(np.int64)
        # n_a * n_b * 16 ps / duration_ps = background, so g2 = counts / background.
        return histogram_from_dense(
            -1_000_000, 16, counts, 10**6, 10**6, round(16 * 10**12 / background)
        )

    def test_centroids_recover_injected_positions(self):
        hist = self.synthetic_histogram()
        peaks = find_two_peaks(hist, PARAMS)
        assert abs(peaks.tau_ab_ps - 30_000.0) < 3.0 * peaks.sigma_ab_ps
        assert abs(peaks.tau_ba_ps + 20_000.0) < 3.0 * peaks.sigma_ba_ps
        assert peaks.height_ab > peaks.height_ba > 100.0

    def test_centroids_match_the_sample_mean_of_integer_peaks(self):
        # Pair differences are whole picoseconds, so a 16 ps bin holds 16 integers
        # and the centroid must sit at the sample mean, without a half-picosecond
        # bias. 20 histograms of two peaks, each of 200 000 integer differences
        # (sigma 212 ps, no background). Measured: centroid minus sample mean is
        # -0.094 to +0.104 ps; placing each bin at its interval midpoint instead
        # gives +0.406 to +0.604 ps.
        rng = np.random.default_rng(5)
        for _ in range(20):
            means = (rng.uniform(20_000, 30_000), rng.uniform(-30_000, -20_000))
            diffs = [np.rint(rng.normal(mu, 212.0, 200_000)).astype(np.int64) for mu in means]
            counts = np.bincount(
                (np.concatenate(diffs) - PARAMS.tau_min_ps) // 16, minlength=125_000
            )
            hist = histogram_from_dense(PARAMS.tau_min_ps, 16, counts, 1, 1, 1)
            peaks = find_two_peaks(hist, PARAMS)
            assert abs(peaks.tau_ab_ps - diffs[0].mean()) <= 0.2
            assert abs(peaks.tau_ba_ps - diffs[1].mean()) <= 0.2

    def test_later_peak_is_always_tau_ab(self):
        hist = self.synthetic_histogram(amp_hi=2000.0, amp_lo=6000.0)
        peaks = find_two_peaks(hist, PARAMS)
        assert peaks.tau_ab_ps > peaks.tau_ba_ps

    def test_flat_background_not_found(self):
        counts = np.random.default_rng(17).poisson(100.0, 2000).astype(np.int64)
        hist = histogram_from_dense(0, 16, counts, 1000, 1000, 10**9)
        with pytest.raises(PeaksNotFoundError):
            find_two_peaks(hist, PARAMS)

    def test_sparse_background_not_found(self):
        counts = np.random.default_rng(23).poisson(0.1, 125_000).astype(np.int64)
        hist = histogram_from_dense(0, 16, counts, 100, 100, 10**9)
        with pytest.raises(PeaksNotFoundError):
            find_two_peaks(hist, PARAMS)

    def test_single_peak_not_found(self):
        counts = np.zeros(10_000, dtype=np.int64)
        profile = np.rint(1000 * np.exp(-0.5 * (np.arange(-20, 21) / 13.0) ** 2))
        counts[4980:5021] = profile.astype(np.int64)
        hist = histogram_from_dense(-80_000, 16, counts, 1000, 1000, 10**9)
        with pytest.raises(PeaksNotFoundError):
            find_two_peaks(hist, PARAMS)

    def test_min_separation_suppresses_sibling_maxima(self):
        hist = self.synthetic_histogram()
        with pytest.raises(PeaksNotFoundError):
            find_two_peaks(hist, SyncAnalysisParams(min_separation_ps=200_000))


class TestEstimateSync:
    def test_symmetric_delays_zero_offset(self):
        est = estimate_sync(PeakPair(40_000.0, -40_000.0, 1.0, 1.0, 10.0, 10.0))
        assert est.delta_ps == 0.0
        assert est.round_trip_ps == 80_000.0

    def test_plain_arithmetic(self):
        est = estimate_sync(PeakPair(30_000.0, -20_000.0, 3.0, 4.0, 10.0, 10.0))
        assert est.delta_ps == pytest.approx(5_000.0)
        assert est.round_trip_ps == pytest.approx(50_000.0)
        assert est.delta_sigma_ps == pytest.approx(2.5)  # 0.5 * hypot(3, 4)


@pytest.fixture(scope="module")
def streams():
    return simulate_timing(small_scenario())


class TestPipeline:
    def test_peak_fwhm_matches_pair_jitter(self):
        sigma_photon = 212.0 / np.sqrt(2.0)
        sc = small_scenario(
            duration_s=120.0,
            seed=19,
            alice_source=PairSourceModel(200.0, sigma_photon),
            bob_source=PairSourceModel(200.0, sigma_photon),
        )
        alice, bob = simulate_timing(sc)
        hist = compute_g2(alice.timestamps_ps, bob.timestamps_ps, PARAMS, 120 * 10**12)
        peaks = find_two_peaks(hist, PARAMS)
        for tau in (peaks.tau_ab_ps, peaks.tau_ba_ps):
            fit = fit_peak_gaussian(hist, tau, 1500.0)
            assert abs(fit["fwhm_ps"] - 500.0) < 50.0

    def test_translation_equivariance(self, streams):
        alice, bob = (s.timestamps_ps for s in streams)
        duration_ps = 80 * 10**12
        base = find_two_peaks(compute_g2(alice, bob, PARAMS, duration_ps), PARAMS)
        shift = 16 * 200
        moved = find_two_peaks(compute_g2(alice, bob + shift, PARAMS, duration_ps), PARAMS)
        assert moved.tau_ab_ps - base.tau_ab_ps == pytest.approx(shift, abs=1e-6)
        assert moved.tau_ba_ps - base.tau_ba_ps == pytest.approx(shift, abs=1e-6)
        d0, d1 = estimate_sync(base), estimate_sync(moved)
        assert d1.delta_ps - d0.delta_ps == pytest.approx(shift, abs=1e-6)
        assert d1.round_trip_ps == pytest.approx(d0.round_trip_ps, abs=1e-6)

    def test_block_analysis_five_minute_run(self, tmp_path):
        sc = small_scenario(duration_s=300.0, seed=11)
        alice, bob = simulate_timing(sc)
        estimates = analyze_blocks(alice, bob, 40.0, PARAMS, tmp_path)
        assert len(estimates) == 7
        assert [e.block_index for e in estimates] == list(range(7))
        deltas = [e.delta_ps for e in estimates]
        sigmas = [e.delta_sigma_ps for e in estimates]
        for i in range(7):
            for j in range(i + 1, 7):
                gap = abs(deltas[i] - deltas[j])
                assert gap < 3.0 * float(np.hypot(sigmas[i], sigmas[j]))

    def test_symmetric_extension_moves_round_trip_only(self, tmp_path):
        base = ChannelConfig(base_length_m=1.9, eve_length_ab_m=1.0, eve_length_ba_m=1.0)
        extended = ChannelConfig(base_length_m=1.9, eve_length_ab_m=6.0, eve_length_ba_m=6.0)
        sc = small_scenario(
            duration_s=160.0,
            seed=13,
            channel=base,
            schedule=(ScheduleEntry(80.0, extended),),
        )
        alice, bob = simulate_timing(sc)
        estimates = analyze_blocks(alice, bob, 80.0, PARAMS, tmp_path)
        assert len(estimates) == 2
        first, second = estimates
        expected_rt_change = 2.0 * 5.0 * 1.5134 / 0.000299792458
        assert abs((second.round_trip_ps - first.round_trip_ps) - expected_rt_change) < 50.0
        combined = 3.0 * float(np.hypot(first.delta_sigma_ps, second.delta_sigma_ps))
        assert abs(second.delta_ps - first.delta_ps) < combined

    def test_slow_clock_drift_walks_the_offset(self, tmp_path):
        sc = small_scenario(
            duration_s=120.0,
            seed=17,
            bob_clock=ClockModel(offset_ps=0, drift_ppb=0.002),
        )
        alice, bob = simulate_timing(sc)
        estimates = analyze_blocks(alice, bob, 40.0, PARAMS, tmp_path)
        assert len(estimates) == 3
        # 0.002 ppb over a 40 s block centre spacing is an 80 ps step.
        for first, second in zip(estimates, estimates[1:]):
            step = second.delta_ps - first.delta_ps
            bound = 3.0 * float(np.hypot(first.delta_sigma_ps, second.delta_sigma_ps))
            assert abs(step - 80.0) < bound

    def test_fast_clock_drift_smears_peaks_away(self, tmp_path):
        # 100 ppb drags the correlation peak across 4 us within one block;
        # no localized peak survives, so every block is a gap.
        sc = small_scenario(
            duration_s=120.0,
            seed=17,
            bob_clock=ClockModel(offset_ps=0, drift_ppb=100.0),
        )
        alice, bob = simulate_timing(sc)
        assert analyze_blocks(alice, bob, 40.0, PARAMS, tmp_path) == []

    def test_empty_streams_give_empty_result(self, tmp_path):
        empty = make_stream([])
        assert analyze_blocks(empty, empty, 40.0, PARAMS, tmp_path) == []

    def test_zero_rate_gives_gaps_not_errors(self, tmp_path):
        sc = small_scenario(
            alice_source=PairSourceModel(0.0), bob_source=PairSourceModel(0.0)
        )
        alice, bob = simulate_timing(sc)
        assert analyze_blocks(alice, bob, 40.0, PARAMS, tmp_path, n_blocks=2) == []

    def test_gap_blocks_skipped_but_indices_kept(self, streams, tmp_path):
        alice, bob = streams
        # Silence the middle block by splicing the two halves apart in time.
        hole = np.concatenate(
            [
                alice.timestamps_ps[alice.timestamps_ps < 40 * 10**12],
                alice.timestamps_ps[alice.timestamps_ps >= 40 * 10**12] + 40 * 10**12,
            ]
        )
        alice_holed = make_stream(hole)
        hole_b = np.concatenate(
            [
                bob.timestamps_ps[bob.timestamps_ps < 40 * 10**12],
                bob.timestamps_ps[bob.timestamps_ps >= 40 * 10**12] + 40 * 10**12,
            ]
        )
        bob_holed = make_stream(hole_b)
        estimates = analyze_blocks(alice_holed, bob_holed, 40.0, PARAMS, tmp_path, n_blocks=3)
        assert [e.block_index for e in estimates] == [0, 2]


class TestExports:
    def test_histogram_csv_roundtrip(self, tmp_path):
        # The file lists the occupied bins; bin i lies at tau_min_ps + i W + (W - 1)/2,
        # so the dense counts come back from the grid, with 0 in every bin not listed.
        pairs = (times([0, 50]), times([10, 60]))
        for hist in (
            compute_g2(*pairs, window(-20, 100, 10), 100),
            compute_g2(*pairs, window(-20, 100, 7), 100),
            histogram_from_dense(-20, 10, np.zeros(12, np.int64), 2, 2, 100),
        ):
            path = tmp_path / "hist.csv"
            write_histogram_csv(hist, path)
            lines = path.read_text().splitlines()
            assert lines[0] == "tau_ps,counts,g2"
            assert len(lines) == 1 + np.count_nonzero(dense_counts(hist))
            dense = np.zeros(hist.n_bins, np.int64)
            for line in lines[1:]:
                tau, count, g2 = line.split(",")
                i = (Fraction(tau) - hist.tau_min_ps - Fraction(hist.bin_width_ps - 1, 2)) / (
                    hist.bin_width_ps
                )
                assert i.denominator == 1 and 0 <= i < hist.n_bins and dense[int(i)] == 0
                dense[int(i)] = int(count)
                assert float(g2) == pytest.approx(int(count) / hist.accidentals_per_bin)
            assert np.array_equal(dense, dense_counts(hist))

    @pytest.mark.parametrize(
        "case",
        [
            "odd_bin_width", "exponent_centres", "hand_built", "two_write_steps",
            "range_edge_centres", "zero_bins",
        ],
    )
    def test_histogram_csv_bytes_match_row_loop(self, case, tmp_path):
        a = times([0, 37, 50, 900, 901])
        b = times([10, 11, 60, 880, 2_000])
        span_ps = 1_990  # the longer stream's first-to-last span
        expected_text = b""
        if case == "odd_bin_width":
            hist = compute_g2(a, b, window(-1_001, 1_000, 7), span_ps)
            expected_text = b"\n-893,3,"
        elif case == "exponent_centres":
            shift = 3 * 10**10
            far_b = b + shift
            hist = compute_g2(a, far_b, window(shift - 5_000, shift + 5_000, 3), span_ps)
            expected_text = b"\n29999999108,1,"
        elif case == "hand_built":
            # 3000 x 4000 singles over 10 ps bins in 4000 ps: 3e4 accidentals per
            # bin, so a single count prints its g2 in exponent form.
            counts = [0, 0, 5, 5, 1, 0, 12345678901, 2]
            hist = histogram_from_dense(-40, 10, counts, 3_000, 4_000, 4_000)
            expected_text = b"\n4.5,1,3.333333333e-05\n24.5,12345678901,411522.63\n"
        elif case == "two_write_steps":
            # More occupied bins than one write step, an even bin width and centres
            # on both sides of 0, so a chunk edge falls inside the half-integer column.
            counts = np.random.default_rng(5).poisson(2.0, 2 * _TEXT_ROWS) + 1
            hist = histogram_from_dense(-16 * _TEXT_ROWS, 16, counts, 4_000, 5_000, 10**9)
            expected_text = b"\n-8.5,"
        elif case == "range_edge_centres":
            # Four bins of 2**61 ps across the whole window the parameters allow:
            # 19-digit half-integer centres on both sides of 0.
            hist = histogram_from_dense(-(2**62), 2**61, [1, 2, 3, 4], 10, 10, 10**6)
            expected_text = b"\n-3458764513820540928.5,1,"
        else:
            hist = histogram_from_dense(0, 16, np.zeros(0, np.int64), 0, 0, 10)
            expected_text = b"tau_ps,counts,g2\n"
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        assert path.read_bytes() == histogram_csv_reference(hist)
        assert expected_text in path.read_bytes()

    def test_histogram_centres_are_exact_far_from_zero(self, tmp_path):
        # A window 0.3 s out, where the peaks of taggers started apart lie:
        # each of the 125 occupied bins gets its own tau_ps, its position written exactly.
        hist = histogram_from_dense(3 * 10**11, 16, np.arange(1, 126), 10, 10, PS_PER_S)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        taus = [line.split(b",")[0] for line in path.read_bytes().splitlines()[1:]]
        assert len(set(taus)) == hist.n_bins
        assert taus == [b"%d.5" % (3 * 10**11 + 16 * i + 7) for i in range(hist.n_bins)]

    def test_estimates_json_schema(self, tmp_path):
        est = estimate_sync(PeakPair(10.0, -10.0, 1.0, 1.0, 5.0, 5.0), block_index=3)
        write_estimates_json([est], tmp_path / "estimates.json")
        payload = json.loads((tmp_path / "estimates.json").read_text())
        assert list(payload[0]) == ["block_index", "delta_ps", "round_trip_ps", "delta_sigma_ps"]
        assert payload == [
            {
                "block_index": 3,
                "delta_ps": 0.0,
                "round_trip_ps": 20.0,
                "delta_sigma_ps": pytest.approx(np.hypot(1.0, 1.0) / 2.0),
            }
        ]
