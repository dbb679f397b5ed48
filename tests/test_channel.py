import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entsync.channel import (
    ChannelConfig,
    Direction,
    apply_channel,
    predicted_offset_error_ps,
    propagation_delay_ps,
)
from entsync.errors import ConfigError
from entsync.timetags import ClockModel, apply_clock

from oracles import channel_arrivals_reference


def times(values):
    return np.asarray(values, dtype=np.int64)


class TestPropagationDelay:
    def test_zero_length(self):
        assert propagation_delay_ps(0.0, 1.5) == 0.0

    def test_vacuum_metre(self):
        assert propagation_delay_ps(1.0, 1.0) == pytest.approx(3335.64095198152, abs=1e-6)

    def test_ten_metres_standard_fiber(self):
        delay = propagation_delay_ps(10.0, 1.5134)
        assert delay == pytest.approx(50481.590167288334, rel=1e-12)
        assert abs(delay - 50480.0) <= 10.0

    def test_vacuum_channel_accepted(self):
        cfg = ChannelConfig(base_length_m=1.0, group_index=1.0)
        assert cfg.delay_ps(Direction.A_TO_B) == propagation_delay_ps(1.0, 1.0)


class TestApplyChannel:
    def test_zero_lengths_identity(self):
        cfg = ChannelConfig(0.0, 0.0, 0.0)
        s = times([0, 10, 20])
        out = apply_channel(s, Direction.A_TO_B, [(0, cfg)])
        assert np.array_equal(out, s)

    def test_direction_dependent_delay(self):
        cfg = ChannelConfig(base_length_m=0.0, eve_length_ab_m=10.0, eve_length_ba_m=0.0)
        s = times([0, 100])
        ab = apply_channel(s, Direction.A_TO_B, [(0, cfg)])
        ba = apply_channel(s, Direction.B_TO_A, [(0, cfg)])
        extra = int(ab[0] - ba[0])
        assert abs(extra - 50480) <= 10
        assert np.array_equal(ab - extra, ba)

    def test_every_event_shifts_identically(self):
        cfg = ChannelConfig(base_length_m=3.3, eve_length_ab_m=1.7)
        s = times([0, 7, 3000, 10**12])
        out = apply_channel(s, Direction.A_TO_B, [(0, cfg)])
        shifts = set((out - s).tolist())
        assert len(shifts) == 1

    def test_round_trip_invariant_under_length_swap(self):
        cfg = ChannelConfig(1.0, 10.0, 2.0)
        swapped = ChannelConfig(1.0, 2.0, 10.0)
        rt = cfg.delay_rounded_ps(Direction.A_TO_B) + cfg.delay_rounded_ps(Direction.B_TO_A)
        rt_swapped = swapped.delay_rounded_ps(Direction.A_TO_B) + swapped.delay_rounded_ps(
            Direction.B_TO_A
        )
        assert rt == rt_swapped

    def test_empty_stream_passes_through(self):
        out = apply_channel(times([]), Direction.B_TO_A, [(0, ChannelConfig(base_length_m=7.0))])
        assert len(out) == 0

    def test_schedule_switches_delay_at_segment_start(self):
        short = ChannelConfig(base_length_m=1.0)
        long = ChannelConfig(base_length_m=3.0)
        s = times([0, 999, 1000, 5000])
        out = apply_channel(s, Direction.A_TO_B, [(0, short), (1000, long)])
        d_short = short.delay_rounded_ps(Direction.A_TO_B)
        d_long = long.delay_rounded_ps(Direction.A_TO_B)
        expected = [0 + d_short, 999 + d_short, 1000 + d_long, 5000 + d_long]
        assert out.tolist() == expected

    def test_delay_drop_keeps_stream_sorted(self):
        # A 10 m shorter path from t = 1000 ps overtakes events sent just before.
        long = ChannelConfig(base_length_m=10.0)
        short = ChannelConfig(base_length_m=0.0)
        s = times([0, 900, 1000, 1100])
        out = apply_channel(s, Direction.B_TO_A, [(0, long), (1000, short)])
        d_long = long.delay_rounded_ps(Direction.B_TO_A)
        assert out.tolist() == [1000, 1100, d_long, 900 + d_long]

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ({"base_length_m": 1e15}, "AtoB delay"),
            ({"eve_length_ba_m": 1e20}, "BtoA delay"),
            # Each length is finite, their sum is not.
            ({"base_length_m": 1e308, "eve_length_ab_m": 1e308}, "AtoB delay"),
        ],
    )
    def test_delay_must_fit_the_timestamp_range(self, lengths, message):
        with pytest.raises(ConfigError, match=message):
            ChannelConfig(**lengths)


class TestPredictedOffsetError:
    def test_symmetric_channel_unbiased(self):
        assert predicted_offset_error_ps(ChannelConfig(5.0, 3.0, 3.0)) == 0.0

    def test_ten_metre_asymmetry(self):
        err = predicted_offset_error_ps(ChannelConfig(0.0, 10.0, 0.0))
        assert err == pytest.approx(25240.795083644167, rel=1e-12)
        # half the extra round trip, 25.24 ns, to within the quoted 20 ps
        assert abs(err - 25240.0) <= 20.0

    def test_antisymmetry(self):
        plus = predicted_offset_error_ps(ChannelConfig(0.0, 10.0, 0.0))
        minus = predicted_offset_error_ps(ChannelConfig(0.0, 0.0, 10.0))
        assert plus == -minus

    def test_base_length_does_not_bias(self):
        assert predicted_offset_error_ps(ChannelConfig(100.0, 4.0, 4.0)) == 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            predicted_offset_error_ps(ChannelConfig(group_index=0.5))
        with pytest.raises(ConfigError):
            predicted_offset_error_ps(ChannelConfig(base_length_m=-2.0))


@given(
    offset=st.integers(min_value=-10**9, max_value=10**9),
    length=st.floats(min_value=0.0, max_value=1000.0),
)
@settings(max_examples=30, deadline=None)
def test_channel_commutes_with_clock_translation(offset, length):
    cfg = ChannelConfig(base_length_m=length, eve_length_ab_m=2.0)
    clock = ClockModel(offset_ps=offset)
    s = times([0, 17, 40_000])
    schedule = [(0, cfg)]
    labels = np.zeros(s.size, dtype=np.uint32)
    one = apply_clock(apply_channel(s, Direction.A_TO_B, schedule), labels, clock)
    two = apply_channel(apply_clock(s, labels, clock).timestamps_ps, Direction.A_TO_B, schedule)
    assert np.array_equal(one.timestamps_ps, two)


@given(
    sends=st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=60),
    starts=st.lists(
        st.integers(min_value=-(10**6), max_value=10**6), max_size=4, unique=True
    ),
    lengths=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=5, max_size=5),
    direction=st.sampled_from(list(Direction)),
)
# An event exactly at a segment start, and a delay drop that swaps neighbours.
@example(sends=[0, 900, 1000, 1100], starts=[1000], lengths=[10.0, 0.0, 0.0, 0.0, 0.0],
         direction=Direction.B_TO_A)
@settings(max_examples=150, deadline=None)
def test_apply_channel_matches_per_event_segment_reference(sends, starts, lengths, direction):
    s = times(sorted(sends))
    sent = s.copy()
    # The first segment also covers everything before its start.
    segment_starts = [-(10**7), *sorted(starts)]
    configs = [ChannelConfig(base_length_m=length) for length in lengths]
    schedule = list(zip(segment_starts, configs))
    out = apply_channel(s, direction, schedule)
    assert out.dtype == np.int64
    assert np.array_equal(out, channel_arrivals_reference(s, direction, schedule))
    assert np.array_equal(s, sent)
