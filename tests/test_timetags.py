import os
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from entsync import timetags
from entsync.channel import ChannelConfig, Direction, apply_channel
from entsync.correlation import SyncAnalysisParams, compute_g2
from entsync.errors import ConfigError, StreamFormatError
from entsync.timetags import (
    CH_ALICE_LOCAL,
    CH_ALICE_REMOTE,
    CH_BOB_LOCAL,
    CH_BOB_REMOTE,
    RECORD_DTYPE,
    ClockModel,
    DetectorModel,
    PS_PER_S,
    PairSourceModel,
    TimeTagStream,
    apply_clock,
    apply_detector,
    arm_detector,
    decimal_cells,
    generate_pairs,
    merge_streams,
    read_tags_binary,
    read_tags_csv,
    write_tags_binary,
    write_tags_csv,
    _IO_CHUNK,
    _TEXT_ROWS,
    _dead_time_filter,
)

from oracles import (
    apply_detector_reference,
    clock_reading_reference,
    dead_time_keep_reference,
    dense_centers,
    dense_counts,
    merge_reference,
    tags_csv_reference,
    two_stage_arms_reference,
)

MB = 1 << 20


def times(values):
    return np.asarray(values, dtype=np.int64)


def labelled(timestamps):
    return times(timestamps), np.zeros(len(timestamps), dtype=np.uint32)


def make_stream(timestamps):
    return TimeTagStream(*labelled(timestamps))


class TestTimeTagStream:
    def test_rejects_unsorted(self):
        with pytest.raises(StreamFormatError):
            TimeTagStream(np.array([5, 3], dtype=np.int64), np.zeros(2, dtype=np.uint32))

    def test_rejects_oversized_timestamps(self):
        with pytest.raises(OverflowError):
            make_stream([1 << 62])

    def test_range_is_checked_before_order(self):
        with pytest.raises(OverflowError):
            TimeTagStream(times([1 << 62, 0]), np.zeros(2, dtype=np.uint32))

    @pytest.mark.parametrize(
        "timestamps, channels",
        [([1, 2, 3], [0, 0]), ([[1, 2]], [[0, 0]]), (5, 0)],
        ids=["unequal_lengths", "two_dimensional", "zero_dimensional"],
    )
    def test_rejects_arrays_of_the_wrong_shape(self, timestamps, channels):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            TimeTagStream(np.array(timestamps, dtype=np.int64), np.array(channels, dtype=np.uint32))

    def test_merge_orders_ties_by_channel(self):
        ts, ch = merge_streams((times([5, 10]), 1), (times([5, 7]), 0))
        assert list(ts) == [5, 5, 7, 10]
        assert list(ch) == [0, 1, 0, 1]

    arm = st.tuples(
        st.lists(st.integers(min_value=-40, max_value=40), max_size=30),
        st.integers(min_value=0, max_value=3),
    )

    @given(first=arm, second=arm)
    @example(first=([5, 10], 1), second=([5, 7], 0))
    @example(first=([], 3), second=([], 0))
    @example(first=([3, 3, 3], 3), second=([-1, 3, 3, 9], 1))
    @example(first=([3, 3, 9], 2), second=([-1, 3, 3], 2))
    @example(first=([], 0), second=([1, 1], 0))
    # The merge keys each time as 2t or 2t + 1: ties at the ends of the range.
    @example(
        first=([-(2**62 - 1), -(2**62 - 1), 0, 2**62 - 1], 1),
        second=([-(2**62 - 1), 2**62 - 1, 2**62 - 1], 0),
    )
    @example(first=([-(2**62 - 1), 2**62 - 1], 2), second=([-(2**62 - 1), 2**62 - 1], 2))
    @example(first=([0, 7, 7], 2**32 - 1), second=([7, 9], 0))
    @example(first=([-3, 7], 2**32 - 2), second=([-3, 7, 7], 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_merge_matches_lexsort_reference(self, first, second):
        # Ties within and across arms, empty arms, and labels in either order or equal.
        detections = [(times(sorted(ts)), label) for ts, label in (first, second)]
        ts, ch = merge_streams(*detections)
        ref_ts, ref_ch = merge_reference(*detections)
        assert ts.dtype == np.int64 and ch.dtype == np.uint32
        assert np.array_equal(ts, ref_ts)
        assert np.array_equal(ch, ref_ch)


class TestGeneratePairs:
    def test_zero_rate_gives_empty_streams(self):
        assert generate_pairs(PairSourceModel(0.0), 100.0, 1).size == 0

    def test_pair_count_matches_rate_within_5_sigma(self):
        emission = generate_pairs(PairSourceModel(200.0, 150.0), 300.0, 2)
        expected = 200.0 * 300.0
        assert abs(emission.size - expected) < 5.0 * np.sqrt(expected)

    def test_zero_jitter_streams_identical(self):
        # Without jitter or heralding loss both arms are the emission times themselves.
        source = PairSourceModel(1000.0, 0.0)
        emission = generate_pairs(source, 5.0, 3)
        det = arm_detector(source, DetectorModel())
        for seed in (4, 5):
            assert np.array_equal(apply_detector(emission, det, 5.0, seed), emission)

    def test_deterministic_per_seed(self):
        source = PairSourceModel(500.0, 80.0, 0.7)
        one = generate_pairs(source, 10.0, 11)
        assert np.array_equal(one, generate_pairs(source, 10.0, 11))
        assert not np.array_equal(one, generate_pairs(source, 10.0, 12))

    def test_heralding_thins_each_arm(self):
        source = PairSourceModel(2000.0, 0.0, 0.5)
        emission = generate_pairs(source, 20.0, 4)
        det = arm_detector(source, DetectorModel())
        local, remote = (apply_detector(emission, det, 20.0, seed) for seed in (5, 6))
        expected = 2000.0 * 20.0 * 0.5
        assert abs(len(local) - expected) < 5.0 * np.sqrt(expected)
        assert abs(len(remote) - expected) < 5.0 * np.sqrt(expected)
        # Each arm keeps its own subset of the pairs.
        assert np.all(np.isin(local, emission)) and np.all(np.isin(remote, emission))
        assert not np.array_equal(local, remote)

    # ``source`` holds PairSourceModel's arguments: an invalid model raises
    # as soon as it is built, so it is built inside pytest.raises.
    @pytest.mark.parametrize(
        "source,duration",
        [
            ((-1.0,), 1.0),
            ((float("nan"),), 1.0),
            ((100.0, -5.0), 1.0),
            ((100.0, 0.0, 1.5), 1.0),
        ],
    )
    def test_invalid_configuration_raises(self, source, duration):
        with pytest.raises(ConfigError):
            generate_pairs(PairSourceModel(*source), duration, 0)

    @given(
        rate=st.floats(min_value=0.0, max_value=5000.0),
        sigma=st.floats(min_value=0.0, max_value=500.0),
        eff=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # Gaps near the largest float, whose running sum overflows to inf.
    @example(rate=1.458164220654077e-296, sigma=0.0, eff=0.0, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_streams_always_sorted(self, rate, sigma, eff, seed):
        source = PairSourceModel(rate, sigma, eff)
        emission = generate_pairs(source, 1.0, seed)
        assert np.all(np.diff(emission) >= 0)
        arm = apply_detector(emission, arm_detector(source, DetectorModel()), 1.0, seed + 1)
        assert np.all(np.diff(arm) >= 0)


class TestArmDetector:
    SOURCE = PairSourceModel(1000.0, 150.0, 0.8)
    DETECTOR = DetectorModel(jitter_sigma_ps=40.0, efficiency=0.7)
    DURATION_S = 40.0

    def test_composes_source_into_detector(self):
        source = PairSourceModel(10.0, 3.0, 0.5)
        det = DetectorModel(jitter_sigma_ps=4.0, efficiency=0.5, dark_rate_hz=7.0, dead_time_ps=9)
        assert arm_detector(source, det) == DetectorModel(5.0, 0.25, 7.0, 9)
        assert arm_detector(PairSourceModel(10.0), det) == det

    def one_stage_arms(self, seed):
        emission = generate_pairs(self.SOURCE, self.DURATION_S, seed)
        det = arm_detector(self.SOURCE, self.DETECTOR)
        local, remote = (
            apply_detector(emission, det, self.DURATION_S, s) for s in (seed + 1, seed + 2)
        )
        return emission, local, remote

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_stage_arm_matches_two_stage_statistics(self, seed):
        # Kept fraction, residual spread about the emission times and g2 peak
        # width, checked for the one-stage arm and for the two-stage body.
        efficiency = self.SOURCE.heralding_efficiency * self.DETECTOR.efficiency
        variance = self.SOURCE.emission_jitter_sigma_ps**2 + self.DETECTOR.jitter_sigma_ps**2
        params = SyncAnalysisParams(tau_min_ps=-5_000, tau_max_ps=5_000, bin_width_ps=16)
        duration_ps = round(self.DURATION_S * PS_PER_S)
        designs = {
            "one-stage": self.one_stage_arms(seed),
            "two-stage": two_stage_arms_reference(
                self.SOURCE, self.DETECTOR, self.DURATION_S, (seed, seed + 1, seed + 2)
            ),
        }
        assert np.array_equal(designs["one-stage"][0], designs["two-stage"][0])
        for name, (emission, local, remote) in designs.items():
            n = emission.size
            for arm in (local, remote):
                bound = 5.0 * np.sqrt(n * efficiency * (1.0 - efficiency))
                assert abs(arm.size - n * efficiency) < bound, name
                # Pairs are about 1 ms apart and the jitter is 155 ps, so each
                # detection's nearest emission time is its own.
                after = np.clip(np.searchsorted(emission, arm), 1, n - 1)
                residual = np.where(
                    arm - emission[after - 1] < emission[after] - arm,
                    arm - emission[after - 1],
                    arm - emission[after],
                )
                chi2 = float(np.sum(residual.astype(np.float64) ** 2)) / variance
                lo, hi = stats.chi2.ppf([1e-6, 1.0 - 1e-6], arm.size)
                assert lo < chi2 < hi, name
            # The coincidence peak is the difference of two arms' jitters. Its
            # spread, from the histogram's moments less the binning's, has a
            # standard error of width / sqrt(2 pairs).
            width = np.sqrt(2.0 * variance)
            hist = compute_g2(local, remote, params, duration_ps)
            centers = dense_centers(hist)
            peak = np.abs(centers) <= 5.0 * width
            counts, centers = dense_counts(hist)[peak], centers[peak]
            mean = np.average(centers, weights=counts)
            spread = np.average((centers - mean) ** 2, weights=counts) - params.bin_width_ps**2 / 12
            bound = 5.0 * width / np.sqrt(2.0 * counts.sum())
            assert abs(np.sqrt(spread) - width) < bound, name


class TestApplyDetector:
    def test_identity_settings_pass_through(self):
        s = times([1, 5, 9])
        out = apply_detector(s, DetectorModel(), 1.0, 0)
        assert np.array_equal(out, s)

    def test_zero_efficiency_empties_stream(self):
        s = times(np.arange(100))
        out = apply_detector(s, DetectorModel(efficiency=0.0), 1.0, 0)
        assert len(out) == 0

    def test_rate_conservation_with_darks(self):
        duration = 10.0
        local = generate_pairs(PairSourceModel(2000.0), duration, 5)
        det = DetectorModel(efficiency=0.7, dark_rate_hz=300.0)
        out = apply_detector(local, det, duration, 6)
        expected = (0.7 * 2000.0 + 300.0) * duration
        assert expected > 1e4
        assert abs(len(out) - expected) < 5.0 * np.sqrt(expected)

    def test_dead_time_enforced(self):
        s = times([0, 10, 25, 26, 100, 149, 150])
        out = apply_detector(s, DetectorModel(dead_time_ps=50), 1.0, 0)
        diffs = np.diff(out)
        assert np.all(diffs >= 50)
        assert out[0] == 0

    @given(
        dead=st.integers(min_value=1, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_dead_time_property(self, dead, seed):
        rng = np.random.default_rng(seed)
        s = times(np.sort(rng.integers(0, 100_000, size=200)))
        out = apply_detector(s, DetectorModel(dead_time_ps=dead), 1e-6, seed)
        if len(out) > 1:
            assert int(np.diff(out).min()) >= dead

    @given(
        # Gaps of 0-60 ps give duplicate timestamps and dense clusters, gaps up
        # to 5 ns isolated events; short lists give a dead time longer than
        # the whole span.
        gaps=st.lists(
            st.one_of(st.integers(0, 60), st.integers(0, 5_000)), min_size=0, max_size=300
        ),
        start=st.integers(-(10**12), 10**12),
        dead=st.integers(min_value=1, max_value=10_000),
    )
    @example(gaps=[], start=0, dead=50)
    @example(gaps=[0], start=7, dead=50)
    @example(gaps=[0, 0, 0, 10, 0, 40, 0], start=0, dead=50)
    @example(gaps=[0, 30, 2_000, 100, 1], start=-500, dead=10**6)
    @settings(max_examples=200, deadline=None)
    def test_dead_time_filter_matches_event_loop(self, gaps, start, dead):
        ts = start + np.cumsum(np.asarray(gaps, dtype=np.int64))
        expected = dead_time_keep_reference(ts, dead)
        # Candidates are found a chunk of gaps at a time; no chunk size changes the result.
        for chunk in (1, 3, timetags._DRAW_CHUNK):
            with mock.patch.object(timetags, "_DRAW_CHUNK", chunk):
                assert np.array_equal(_dead_time_filter(ts, dead), expected)

    detector = st.builds(
        DetectorModel,
        jitter_sigma_ps=st.just(0.0) | st.floats(0.5, 5_000.0),
        efficiency=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        dark_rate_hz=st.just(0.0) | st.floats(1e3, 1e8),
        dead_time_ps=st.just(0) | st.integers(1, 10_000),
    )

    @given(
        arrivals=st.lists(st.integers(0, 10**7), max_size=200),
        det=detector,
        duration=st.floats(1e-7, 1e-5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(arrivals=[], det=DetectorModel(), duration=1e-6, seed=0)
    @example(arrivals=[], det=DetectorModel(dead_time_ps=25), duration=1e-6, seed=0)
    @example(arrivals=[], det=DetectorModel(40.0, 0.7, 1e7, 25), duration=1e-6, seed=3)
    @example(arrivals=[0, 5, 5, 9], det=DetectorModel(), duration=1e-6, seed=1)
    @example(
        arrivals=[0, 5, 5, 9], det=DetectorModel(efficiency=0.0, dark_rate_hz=1e7), duration=1e-6, seed=1
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_copying_reference(self, arrivals, det, duration, seed):
        # Efficiency 0, 1 and between; jitter, darks and dead time each on or off;
        # an empty input, with and without dead time, and darks only.
        ts = times(sorted(arrivals))
        ref = apply_detector_reference(ts, det, duration, seed)
        # Chunked draws equal whole ones: no chunk size changes a byte.
        for chunk in (1, 3, timetags._DRAW_CHUNK):
            with mock.patch.object(timetags, "_DRAW_CHUNK", chunk):
                out = apply_detector(ts, det, duration, seed)
            assert out.dtype == np.int64
            assert out.tobytes() == ref.tobytes(), chunk

    def test_dark_counts_inherit_channel(self):
        dark = DetectorModel(dark_rate_hz=5000.0)
        out = apply_detector(times([500_000]), dark, 1.0, 7)
        other = apply_detector(times([250_000]), DetectorModel(), 1.0, 8)
        assert len(out) > 1
        ts, ch = merge_streams((out, 3), (other, 1))
        assert np.array_equal(ts[ch == 3], out)
        assert np.array_equal(ts[ch == 1], other)

    def test_darks_on_empty_signal_carry_detector_channel(self):
        out = apply_detector(times([]), DetectorModel(dark_rate_hz=5000.0), 1.0, 7)
        assert len(out) > 1
        _, ch = merge_streams((out, 3), (times([]), 1))
        assert set(ch.tolist()) == {3}


def test_inputs_are_left_unchanged():
    # merge_streams, apply_detector and apply_channel each sort a buffer of their own in place.
    rng = np.random.default_rng(5)
    a = np.sort(rng.integers(0, 10**9, 500))
    b = np.sort(rng.integers(0, 10**9, 500))
    a_before, b_before = a.copy(), b.copy()
    merge_streams((a, 3), (b, 1))
    merge_streams((b, 0), (a, 2))
    for det in (
        DetectorModel(),
        DetectorModel(jitter_sigma_ps=40.0, dark_rate_hz=1e5, dead_time_ps=1_000),
        DetectorModel(40.0, 0.7, 1e5, 1_000),
    ):
        apply_detector(a, det, 1e-3, 2)
    schedule = [(0, ChannelConfig(base_length_m=10.0)), (5 * 10**8, ChannelConfig())]
    apply_channel(b, Direction.A_TO_B, schedule)
    assert np.array_equal(a, a_before)
    assert np.array_equal(b, b_before)


class TestApplyClock:
    def test_zero_offset_zero_drift_is_identity(self):
        ts, ch = labelled([0, 5, 10])
        out = apply_clock(ts, ch, ClockModel())
        assert np.array_equal(out.timestamps_ps, ts)
        assert np.array_equal(out.channels, ch)

    def test_pure_translation(self):
        out = apply_clock(*labelled([0, 5, 10]), ClockModel(offset_ps=1000))
        assert list(out.timestamps_ps) == [1000, 1005, 1010]

    def test_drift_arithmetic(self):
        # 1000 ppb = 1e-6 fractional: 1e12 ps maps to 1e12 + 1e6 plus offset.
        out = apply_clock(*labelled([10**12]), ClockModel(offset_ps=250, drift_ppb=1000.0))
        assert int(out.timestamps_ps[0]) == 10**12 + 10**6 + 250

    def test_apply_then_subtract_offset_is_identity(self):
        ts, ch = labelled([3, 14, 159, 2653])
        once = apply_clock(ts, ch, ClockModel(offset_ps=771))
        roundtrip = apply_clock(once.timestamps_ps, once.channels, ClockModel(offset_ps=-771))
        assert np.array_equal(roundtrip.timestamps_ps, ts)

    def test_slowest_forward_clock_keeps_order(self):
        ts, ch = labelled([0, 10**12, 10**12 + 1, 3 * 10**12])
        out = apply_clock(ts, ch, ClockModel(drift_ppb=-1e5))
        # 100 ppm slow: 1 s reads 1e8 ps short.
        slow = 10**12 - 10**8
        assert list(out.timestamps_ps) == [0, slow, slow + 1, 3 * slow]

    def test_overflow_is_a_hard_error(self):
        with pytest.raises(OverflowError):
            apply_clock(*labelled([(1 << 62) - 500]), ClockModel(offset_ps=1000))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        ideal=st.lists(
            st.one_of(st.integers(-(10**13), 10**13), st.integers(-(2**62) + 1, 2**62 - 1)),
            min_size=1,
            max_size=8,
        ),
        drift_ppb=st.floats(-1e5, 1e5),
        offset_ps=st.one_of(st.integers(-(10**13), 10**13), st.integers(-(2**62) + 1, 2**62 - 1)),
    )
    def test_reading_is_within_1ps_of_the_exact_reading(self, ideal, drift_ppb, offset_ps):
        # Ideal times over the whole range; ClockModel.reads_in_range must agree
        # with apply_clock's range check, and every reading in range is exact to 1 ps.
        clock = ClockModel(offset_ps, drift_ppb)
        ts = np.sort(np.array(ideal, dtype=np.int64))
        ch = np.zeros(ts.size, dtype=np.uint32)
        if not all(clock.reads_in_range(t) for t in ts.tolist()):
            with pytest.raises(OverflowError):
                apply_clock(ts, ch, clock)
            return
        readings = apply_clock(ts, ch, clock).timestamps_ps.tolist()
        exact = [clock_reading_reference(t, clock) for t in ts.tolist()]
        assert max(abs(r - e) for r, e in zip(readings, exact)) <= 1

    def test_clocks_at_the_drift_bound_keep_order_near_2_62_ps(self):
        # Here a float64 time moves in 1 024 ps steps, so at 100 ppm its drift
        # term moves by about 0.1 ps per step while the time advances by 1 ps.
        ts, ch = labelled(np.arange(2**62 - 2**50, 2**62 - 2**50 + 5_000))
        for clock in (ClockModel(drift_ppb=-1e5), ClockModel(drift_ppb=1e5)):
            out = apply_clock(ts, ch, clock).timestamps_ps
            exact = [clock_reading_reference(t, clock) for t in ts.tolist()]
            assert np.all(np.diff(out) >= 0)
            assert np.max(np.abs(out - np.array(exact))) <= 1


class TestFileFormats:
    def test_binary_roundtrip(self, tmp_path):
        s = TimeTagStream(
            np.array([-5, 0, 7, 7, 123456789], dtype=np.int64),
            np.array([0, 1, 2, 3, 0], dtype=np.uint32),
        )
        path = tmp_path / "tags.tt"
        write_tags_binary(s, path)
        back = read_tags_binary(path)
        assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
        assert np.array_equal(back.channels, s.channels)
        assert path.stat().st_size == 16 * len(s)

    @pytest.mark.parametrize("n", [0, _IO_CHUNK - 1, _IO_CHUNK, _IO_CHUNK + 1])
    def test_binary_roundtrip_across_chunk_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        s = TimeTagStream(
            np.cumsum(rng.integers(0, 3, n)), rng.integers(0, 4, n).astype(np.uint32)
        )
        rec = np.zeros(n, dtype=RECORD_DTYPE)
        rec["timestamp_ps"], rec["channel"] = s.timestamps_ps, s.channels
        path = tmp_path / "tags.tt"
        write_tags_binary(s, path)
        assert path.read_bytes() == rec.tobytes()
        back = read_tags_binary(path)
        assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
        assert np.array_equal(back.channels, s.channels)

    def test_truncated_binary_past_a_chunk_reports_offset(self, tmp_path):
        s = make_stream(np.arange(_IO_CHUNK + 1))
        path = tmp_path / "tags.tt"
        write_tags_binary(s, path)
        path.write_bytes(path.read_bytes()[:-8])
        message = f"^truncated record at byte offset {16 * _IO_CHUNK} in "
        with pytest.raises(StreamFormatError, match=message):
            read_tags_binary(path)

    def test_short_read_reports_offset(self, tmp_path, monkeypatch):
        # The file shrinks after its length is taken: fstat reports five records, three remain.
        path = tmp_path / "tags.tt"
        write_tags_binary(make_stream([1, 2, 3]), path)
        real_fstat = os.fstat

        def stale_fstat(fd):
            info = real_fstat(fd)
            return mock.Mock(st_mode=info.st_mode, st_size=info.st_size + 2 * RECORD_DTYPE.itemsize)

        monkeypatch.setattr(timetags.os, "fstat", stale_fstat)
        with pytest.raises(StreamFormatError, match="^truncated record at byte offset 48 in "):
            read_tags_binary(path)

    def test_binary_tags_from_a_pipe_are_refused(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, np.zeros(2, dtype=RECORD_DTYPE).tobytes())
            os.close(write_end)
            with pytest.raises(StreamFormatError, match="must be a regular file"):
                read_tags_binary(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_binary_io_allocates_only_fixed_buffers(self, tmp_path, traced_peak):
        # About 4 M events: a 64 MB file. Writing must not copy the record, and
        # reading must not hold the file's bytes beside the arrays it fills.
        n = 4 * MB
        s = TimeTagStream(np.arange(n, dtype=np.int64), (np.arange(n) % 4).astype(np.uint32))
        path = tmp_path / "tags.tt"
        write_peak, _ = traced_peak(write_tags_binary, s, path)
        read_peak, back = traced_peak(read_tags_binary, path)
        assert write_peak < 8 * MB
        assert read_peak < back.timestamps_ps.nbytes + back.channels.nbytes + 8 * MB

    def test_truncated_binary_reports_offset(self, tmp_path):
        s = make_stream([1, 2, 3])
        path = tmp_path / "tags.tt"
        write_tags_binary(s, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StreamFormatError, match="byte offset 32"):
            read_tags_binary(path)

    @pytest.mark.parametrize("timestamp", [2**62, 2**63 - 1, -(2**62), -(2**63)])
    def test_out_of_range_binary_timestamp_names_file(self, tmp_path, timestamp):
        rec = np.zeros(2, dtype=RECORD_DTYPE)
        rec["timestamp_ps"] = timestamp
        path = tmp_path / "tags.tt"
        path.write_bytes(rec.tobytes())
        with pytest.raises(StreamFormatError, match=r"^out-of-range value in .*tags\.tt: "):
            read_tags_binary(path)

    @pytest.mark.parametrize("row", [f"{2**62},0", f"{2**63},0", f"{-(2**63) - 1},0", "5,-1"])
    def test_out_of_range_csv_value_names_file(self, tmp_path, row):
        path = tmp_path / "tags.csv"
        path.write_text(f"timestamp_ps,channel\n{row}\n")
        with pytest.raises(StreamFormatError, match=r"^out-of-range value in .*tags\.csv: "):
            read_tags_csv(path)

    def test_csv_roundtrip(self, tmp_path):
        s = TimeTagStream(
            np.array([0, 10, 20], dtype=np.int64), np.array([1, 0, 3], dtype=np.uint32)
        )
        path = tmp_path / "tags.csv"
        write_tags_csv(s, path)
        back = read_tags_csv(path)
        assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
        assert np.array_equal(back.channels, s.channels)

    def test_csv_bytes_match_row_loop(self, tmp_path):
        rng = np.random.default_rng(3)
        # More rows than one write step, so a chunk edge falls inside the file.
        ts = np.sort(rng.integers(-(10**15), 10**15, size=_TEXT_ROWS + 2_000))
        ts[:2] = [-(2**62) + 1, -1]
        ts[-2:] = [0, 2**62 - 1]
        ts.sort()
        # The four simulated labels and the largest one a tag file may hold.
        labels = [CH_ALICE_LOCAL, CH_ALICE_REMOTE, CH_BOB_LOCAL, CH_BOB_REMOTE, 2**32 - 1]
        s = TimeTagStream(ts, rng.choice(labels, size=ts.size).astype(np.uint32))
        path = tmp_path / "tags.csv"
        write_tags_csv(s, path)
        assert path.read_bytes() == tags_csv_reference(s)
        empty = make_stream([])
        write_tags_csv(empty, path)
        assert path.read_bytes() == tags_csv_reference(empty)

    @pytest.mark.parametrize("half", [False, True], ids=["integers", "half_integers"])
    def test_decimal_cells_match_python_formatting(self, half):
        # The int64 extremes, 0, +-1, every power of ten and its neighbours,
        # and -998, whose half-integer -997.5 is written by its magnitude.
        values = [-(2**63), 2**63 - 1, 0, 1, -1, -998]
        for k in range(19):
            values += [10**k - 1, 10**k, 10**k + 1, -(10**k) - 1, -(10**k), -(10**k) + 1]
        cells = decimal_cells(np.array(values, dtype=np.int64), b",", half)
        assert cells.dtype.kind == "S" and cells.size == len(values)
        text = [cell.replace(b"\0", b"") for cell in cells.tolist()]
        # v + 0.5 in exact decimal.
        expected = [f"{Decimal(2 * v + 1) / 2:f}," if half else f"{v}," for v in values]
        assert text == [e.encode() for e in expected]
        assert decimal_cells(np.empty(0, dtype=np.int64), b",", half).size == 0

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("timestamp_ps,channel\n\n0,1\n  \n7,2\n\n")
        back = read_tags_csv(path)
        assert back.timestamps_ps.tolist() == [0, 7]
        assert back.channels.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "row, message",
        [("5,0", "stream is not sorted by timestamp in "), (f"{2**62},0", "out-of-range value in ")],
    )
    def test_csv_record_error_names_its_line_past_blank_lines(self, tmp_path, row, message):
        path = tmp_path / "tags.csv"
        path.write_text(f"timestamp_ps,channel\n\n10,1\n  \n{row}\n\n20,2\n")
        with pytest.raises(StreamFormatError, match=f"^{message}.*tags\\.csv: record at line 5"):
            read_tags_csv(path)

    def test_csv_cell_past_the_int_digit_limit_is_malformed(self, tmp_path):
        # int() refuses more than 4300 digits by default: the row is malformed, not a crash.
        path = tmp_path / "tags.csv"
        path.write_text(f"timestamp_ps,channel\n0,0\n{'1' * 5000},2\n")
        with pytest.raises(StreamFormatError, match="^malformed record at line 3 in "):
            read_tags_csv(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("time,chan\n0,0\n")
        with pytest.raises(StreamFormatError, match="line 1"):
            read_tags_csv(path)

    def test_csv_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("timestamp_ps,channel\n0,0\nnot-a-number,2\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            read_tags_csv(path)
