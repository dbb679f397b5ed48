"""Fiber channel between the two parties, including the asymmetric extra paths.

An interceptor with a pair of circulators can force the two propagation
directions through fibers of different length, so the one-way delays need not
match. Only the timing consequence lives here; the polarization action of the
circulators is modeled separately and the two layers do not couple.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .timetags import MAX_TIMESTAMP_PS

# Vacuum speed of light in metres per picosecond.
C_M_PER_PS = 0.000299792458

# Default fiber group index, chosen so a 10 m one-way asymmetry biases the
# offset estimate by 25.24 ns; override in the channel config as needed.
DEFAULT_GROUP_INDEX = 1.5134


class Direction(Enum):
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


def propagation_delay_ps(length_m: float, group_index: float) -> float:
    """Light travel time through length_m of medium with the given group index."""
    return length_m * group_index / C_M_PER_PS


@dataclass(frozen=True)
class ChannelConfig:
    """Symmetric base fiber plus direction-dependent extra paths (in metres)."""

    base_length_m: float = 0.0
    eve_length_ab_m: float = 0.0
    eve_length_ba_m: float = 0.0
    group_index: float = DEFAULT_GROUP_INDEX

    def __post_init__(self):
        for name in ("base_length_m", "eve_length_ab_m", "eve_length_ba_m"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0")
        # 1 is a vacuum or free-space link, a real channel; no medium is faster.
        if not math.isfinite(self.group_index) or self.group_index < 1.0:
            raise ConfigError("group_index must be finite and >= 1")
        for direction in Direction:
            # Two finite lengths can still sum to inf.
            length = self.length_m(direction)
            if not (math.isfinite(length) and self.delay_ps(direction) < MAX_TIMESTAMP_PS):
                raise ConfigError(f"{direction.value} delay must be < 2**62 ps")

    def length_m(self, direction: Direction) -> float:
        extra = self.eve_length_ab_m if direction is Direction.A_TO_B else self.eve_length_ba_m
        return self.base_length_m + extra

    def delay_ps(self, direction: Direction) -> float:
        return propagation_delay_ps(self.length_m(direction), self.group_index)

    def delay_rounded_ps(self, direction: Direction) -> int:
        """Integer delay applied to every event of a direction.

        Rounded once per (direction, config) so all events shift identically
        and peak widths are untouched.
        """
        return int(round(self.delay_ps(direction)))


def apply_channel(
    timestamps: np.ndarray,
    direction: Direction,
    schedule: Sequence[tuple[int, ChannelConfig]],
) -> np.ndarray:
    """Delay each sorted send time by the one-way delay of the channel active then.

    ``schedule`` lists ``(start_ps, config)`` segments in increasing start
    order; the first segment also covers everything before its start, so a
    fixed channel is ``[(0, config)]``. Each segment's delay is added to its
    slice of the send times, then the arrival times are re-sorted in place,
    because a delay that drops at a segment boundary can swap neighbouring
    events.
    """
    starts = [start for start, _ in schedule[1:]]
    edges = [0, *np.searchsorted(timestamps, starts, side="left").tolist(), timestamps.size]
    out = np.empty(timestamps.size, dtype=np.int64)
    for (_, cfg), lo, hi in zip(schedule, edges, edges[1:]):
        # Both terms are below 2**62, so the sum cannot wrap.
        np.add(timestamps[lo:hi], cfg.delay_rounded_ps(direction), out=out[lo:hi])
    out.sort(kind="stable")
    return out


def predicted_offset_error_ps(cfg: ChannelConfig) -> float:
    """Analytic offset bias induced by the length asymmetry.

    A midpoint-based offset estimate over an asymmetric channel is wrong by
    half the difference of the one-way delays; this is the oracle the
    end-to-end tests compare measured shifts against.
    """
    return (cfg.eve_length_ab_m - cfg.eve_length_ba_m) * cfg.group_index / (2.0 * C_M_PER_PS)
