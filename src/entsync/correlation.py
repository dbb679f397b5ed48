"""Cross-correlation of two time-tag streams and clock-offset estimation.

The histogram of pairwise time differences tau = t_b - t_a shows one
coincidence peak per pair source. The peak separation is the photon
round-trip time; the midpoint is the clock offset, provided the channel is
symmetric. Analysis runs per wall-clock block so a staged channel change is
visible block by block.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, PeaksNotFoundError
from .timetags import MAX_TIMESTAMP_PS, chunk_slices, decimal_cells, write_csv

# Events of the first record swept per step of compute_g2, which bounds its
# temporaries whatever the block's length.
_G2_CHUNK = 1 << 16
# Most bins in one g2 histogram. A block that expects at least one accidental
# per bin counts into a dense array, up to 32 MiB; a sparser block holds only
# its pairs. Its CSV lists only the occupied bins, so at most this many rows.
MAX_G2_BINS = 1 << 22


def _bin_positions(tau_min_ps: int, bin_width_ps: int, bins: np.ndarray):
    """Bin k holds the integers e_k = tau_min_ps + k W to e_k + W - 1 and lies at their centre:
    for each k of ``bins``, an exact int64 floor plus a half (0.5 for an even W, else 0)."""
    return tau_min_ps + (bin_width_ps - 1) // 2 + bins * bin_width_ps, 0.5 * (bin_width_ps % 2 == 0)


@dataclass(frozen=True)
class G2Histogram:
    """Binned pair-difference counts plus the singles that normalise them.

    Only the occupied bins are held: ``bins`` are their ascending int64 indices
    in ``[0, n_bins)`` and ``counts`` their int64 counts, each > 0. Every other
    bin of the window holds 0.
    """

    tau_min_ps: int
    bin_width_ps: int
    n_bins: int
    bins: np.ndarray
    counts: np.ndarray
    n_a: int
    n_b: int
    duration_ps: int

    @property
    def accidentals_per_bin(self) -> float:
        """Mean count per bin of two independent Poisson streams; g2 = counts / this."""
        return self.n_a * self.n_b * self.bin_width_ps / self.duration_ps

    def bin_centers_ps(self, bins: np.ndarray) -> np.ndarray:
        """Position of each bin index in ``bins``, as ``_bin_positions`` gives it, in float64."""
        floor, half = _bin_positions(self.tau_min_ps, self.bin_width_ps, bins)
        return floor + half


@dataclass(frozen=True)
class PeakPair:
    """The two coincidence peaks: positions, centroid errors, amplitudes."""

    tau_ab_ps: float
    tau_ba_ps: float
    sigma_ab_ps: float
    sigma_ba_ps: float
    height_ab: float
    height_ba: float


@dataclass(frozen=True)
class SyncEstimate:
    # The field order is the key order of estimates.json.
    block_index: int
    delta_ps: float
    round_trip_ps: float
    delta_sigma_ps: float


@dataclass(frozen=True)
class SyncAnalysisParams:
    """Histogram and peak-search settings; every field is CLI-overridable."""

    tau_min_ps: int = -1_000_000
    tau_max_ps: int = 1_000_000
    bin_width_ps: int = 16
    min_separation_ps: int = 5_000
    threshold_sigma: float = 5.0
    # Half-width of the centroid window in bins. 47 bins at 16 ps spans about
    # +/-750 ps, wide enough that a 500 ps FWHM peak sits fully inside it;
    # narrow windows make the centroid track the noisy maximum bin instead of
    # the peak.
    centroid_halfwidth_bins: int = 47

    def __post_init__(self):
        # Window edges stay within the timestamp bound, so a timestamp plus an
        # edge always fits in int64.
        if self.tau_max_ps <= self.tau_min_ps:
            raise ConfigError("tau_max_ps must exceed tau_min_ps")
        if self.tau_min_ps < -MAX_TIMESTAMP_PS:
            raise ConfigError("tau_min_ps must be >= -2**62")
        if self.tau_max_ps > MAX_TIMESTAMP_PS:
            raise ConfigError("tau_max_ps must be <= 2**62")
        if self.bin_width_ps < 1:
            raise ConfigError("bin_width_ps must be >= 1")
        n_bins, hi_edge = _histogram_window(self)
        if hi_edge > MAX_TIMESTAMP_PS:
            raise ConfigError("bin_width_ps must end the last bin at or below 2**62 ps")
        if n_bins > MAX_G2_BINS:
            raise ConfigError("bin_width_ps must split the g2 window into at most 2**22 bins")
        if self.min_separation_ps < 0:
            raise ConfigError("min_separation_ps must be >= 0")
        if not math.isfinite(self.threshold_sigma) or self.threshold_sigma < 0:
            raise ConfigError("threshold_sigma must be finite and >= 0")
        if self.centroid_halfwidth_bins < 1:
            raise ConfigError("centroid_halfwidth_bins must be >= 1")


def _histogram_window(params: SyncAnalysisParams) -> tuple[int, int]:
    """Bin count and exclusive upper edge: whole bins from tau_min_ps past tau_max_ps."""
    n_bins = -((params.tau_min_ps - params.tau_max_ps) // params.bin_width_ps)
    return n_bins, params.tau_min_ps + n_bins * params.bin_width_ps


def _grid_starts(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.searchsorted(b, q)`` for sorted ``q`` and sorted ``b`` with
    ``q[0] <= b[0]`` and ``b[-1] > q[-1]``, by one count over a grid.

    The span from ``q[0]`` to ``b[-1]`` is cut into cells of 2**k ps, with k
    set so that a cell holds one to two events of ``b``. One cumulative count
    gives the index of each cell's first event, which is where a query in that
    cell starts; a few vectorised steps then pass the events of its cell that
    lie before it. Offsets from ``q[0]`` are taken as uint64, which holds
    every span of two int64 values exactly. The few queries a burst of ties
    leaves short after the steps take a binary search.
    """
    origin = q[:1].view(np.uint64)
    cell = b.view(np.uint64) - origin
    k = np.uint64((int(cell[-1]) // b.size).bit_length())
    cell >>= k
    # first[c] is the number of events in the cells before cell c.
    first = np.zeros(int(cell[-1]) + 2, dtype=np.intp)
    np.cumsum(np.bincount(cell.view(np.int64)), out=first[1:])
    cell = q.view(np.uint64) - origin
    cell >>= k
    j = first[cell.view(np.int64)]
    # Most queries pass at most one event of their cell, so one step covers
    # them all; the rest step on their own, up to four more times.
    j += b[j] < q
    short = np.flatnonzero(b[j] < q)
    for _ in range(4):
        j[short] += 1
        short = short[b[j[short]] < q[short]]
    j[short] = np.searchsorted(b, q[short])
    return j


def _pair_bins(a: np.ndarray, bt: np.ndarray, params: SyncAnalysisParams) -> np.ndarray:
    """Histogram bin of every pair of a chunk `a` of the first record with `bt`.

    Cuts `bt` to the span the chunk's windows cover and finds each event's
    window start there by a count over a grid (`_grid_starts`). Then walks
    forward: step k takes every still-open event's k-th candidate and closes
    the events whose candidate lies at or past the window's end. A sentinel at
    the chunk's last window end closes every event, so no step needs a bounds
    check.

    On a 100 kHz block a binary search per event, 65 536 queries per chunk
    into a 512 kB slice, took 189 of the sweep's 304 ms; the grid took the
    block's window starts from 185 to 113 ms.
    """
    n_bins, hi_edge = _histogram_window(params)
    ends = a + hi_edge
    b_lo, b_hi = np.searchsorted(bt, [a[0] + params.tau_min_ps, ends[-1]])
    b = np.append(bt[b_lo:b_hi], ends[-1])
    j = _grid_starts(b, a + params.tau_min_ps)
    # Measured from each window's end, a candidate pairs while it is
    # negative; unlike t_b - t_a, this cannot overflow across a long chunk.
    offsets = []
    while ends.size:
        d = b[j] - ends
        still_open = np.flatnonzero(d < 0)
        offsets.append(d[still_open])
        ends = ends[still_open]
        j = j[still_open]
        j += 1
    # tau - tau_min_ps = d + n_bins * bin_width_ps, so d's bin counts back from n_bins.
    bins = np.concatenate(offsets)
    bins //= params.bin_width_ps
    bins += n_bins
    return bins


def compute_g2(
    at: np.ndarray, bt: np.ndarray, params: SyncAnalysisParams, duration_ps: int
) -> G2Histogram:
    """Exact pair-difference histogram over tau = t_b - t_a of two sorted records.

    The sweep runs over `at` in fixed chunks, each giving the bins of its pairs
    (see `_pair_bins`). Cost is one window start per event, found by a grid
    count over a slice of `bt`, plus O(pairs), plus a few numpy calls per step
    of the forward walk, for as many steps as the most pairs of any one event.
    ``duration_ps`` is the span both records were taken over, which fixes the
    accidental rate the histogram is normalised by.

    How the pairs are counted follows that rate. Below one accidental per bin,
    the accidental pairs are fewer than n_bins, so the chunks' bins are kept
    and counted by sorting them: no array grows with n_bins. At one or more
    per bin, each chunk adds into one dense count array, whose occupied bins
    are taken once at the end: on a 100 kHz block of 5.5 M pairs in 125 000
    bins, sorting took 44 ms against 9 ms for counting.
    """
    n_bins, _ = _histogram_window(params)
    parts = chunk_slices(at.size, _G2_CHUNK)
    if at.size * bt.size * params.bin_width_ps < duration_ps:
        pair_bins = [np.empty(0, np.int64)]
        pair_bins += [_pair_bins(at[part], bt, params) for part in parts]
        bins, counts = np.unique(np.concatenate(pair_bins), return_counts=True)
    else:
        dense = np.zeros(n_bins, dtype=np.int64)
        for part in parts:
            # Each chunk's temporaries are freed before the next chunk's are made.
            dense += np.bincount(_pair_bins(at[part], bt, params), minlength=n_bins)
        bins = np.flatnonzero(dense)
        counts = dense[bins]
    return G2Histogram(
        params.tau_min_ps, params.bin_width_ps, n_bins, bins, counts.astype(np.int64, copy=False),
        at.size, bt.size, duration_ps,
    )


def _median_with(values: np.ndarray, fill: float, n_fill: int) -> float:
    """``np.median`` of ``values`` with ``n_fill`` copies of ``fill`` added, bit for bit.

    The middle ranks are read off the sorted distinct values and their running
    counts; an even count takes the mean of the two middle values, as np.median does.
    """
    distinct, repeats = np.unique(np.append(values, fill), return_counts=True)
    repeats[np.searchsorted(distinct, fill)] += n_fill - 1
    ends = np.cumsum(repeats)
    n = int(ends[-1])
    lo, hi = distinct[np.searchsorted(ends, [(n - 1) // 2 + 1, n // 2 + 1])]
    return float(lo) if n % 2 else (float(lo) + float(hi)) / 2


def _background_stats(hist: G2Histogram) -> tuple[float, float]:
    """Robust background level and spread over every bin; peaks barely move the median.

    Each bin the histogram does not hold is a 0, deviating by the median itself.
    """
    n_empty = hist.n_bins - hist.bins.size
    med = _median_with(hist.counts, 0, n_empty)
    mad = _median_with(np.abs(hist.counts - med), med, n_empty)
    # sqrt floor: for sparse Poisson backgrounds the MAD collapses to 0 while
    # extreme bins still reach several counts.
    sigma = max(1.4826 * mad, math.sqrt(med + 1.0))
    return med, sigma


def _refine_centroid(
    hist: G2Histogram, peak_bin: int, halfwidth_bins: int, background: float
) -> tuple[float, float, float]:
    """Background-subtracted intensity centroid around a peak bin.

    The window re-centers on the running centroid until stable, which removes
    the jitter of the starting maximum bin. The height is the final window's
    largest count in g2 units.

    ``peak_bin``'s count must exceed ``background`` and the histogram must have
    singles, as at every maximum the peak search passes. Each later window then
    has weight too: its centre, the last centroid's bin, lies (to a bin of
    round-off) between the last window's outermost weighted bins, which are at
    most 2 ``halfwidth_bins`` apart, so one of them is inside it.
    """
    n = hist.n_bins
    bins, counts = hist.bins, hist.counts
    cur = int(peak_bin)
    visited = set()
    for _ in range(25):
        lo = max(0, cur - halfwidth_bins)
        hi = min(n, cur + halfwidth_bins + 1)
        window = np.zeros(hi - lo, dtype=np.int64)
        held = slice(*np.searchsorted(bins, [lo, hi]))
        window[bins[held] - lo] = counts[held]
        w = window.astype(np.float64) - background
        np.clip(w, 0.0, None, out=w)
        wsum = float(w.sum())
        tau = hist.bin_centers_ps(np.arange(lo, hi))
        centroid = float(np.dot(w, tau) / wsum)
        var = float(np.dot(w, (tau - centroid) ** 2) / wsum)
        sigma = math.sqrt(max(var, hist.bin_width_ps**2 / 12.0) / wsum)
        peak = window.max()
        nxt = int((centroid - hist.tau_min_ps) // hist.bin_width_ps)
        nxt = min(max(nxt, 0), n - 1)
        if nxt == cur or nxt in visited:
            break
        visited.add(cur)
        cur = nxt
    return centroid, sigma, float(peak / hist.accidentals_per_bin)


def _local_maxima_above(hist: G2Histogram, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending bin indices of the histogram's local maxima that exceed ``threshold``,
    and their counts.

    A peak has a strict rise before it and a strict fall after it; a plateau
    counts once, at its midpoint rounded down; an edge bin is never a peak.
    Only the held bins above the threshold and their neighbours are scanned, a
    neighbour the histogram does not hold reading 0. A maximum exceeds its
    neighbours, which are at least 0, so every one is a held bin.
    """
    above = hist.bins[hist.counts > threshold]
    idx = np.unique(np.concatenate((above - 1, above, above + 1)))
    idx = idx[(idx >= 0) & (idx < hist.n_bins)]
    # A scanned bin exists only when some bin is held, so the clip stays in range.
    pos = np.minimum(np.searchsorted(hist.bins, idx), hist.bins.size - 1)
    x = np.where(hist.bins[pos] == idx, hist.counts[pos], 0)
    # +1 rise, -1 fall, 0 flat. A step across unscanned bins never completes a
    # peak: the scanned run before it ends in a fall, the run after it starts with a rise.
    steps = np.sign(np.diff(x))
    turns = np.flatnonzero(steps)
    kinds = steps[turns]
    # A rise whose next non-flat step is a fall brackets one plateau.
    peaks = np.flatnonzero((kinds[:-1] > 0) & (kinds[1:] < 0))
    # A plateau's bins are consecutive and equal, so its first bin gives its count.
    return (idx[turns[peaks] + 1] + idx[turns[peaks + 1]]) // 2, x[turns[peaks] + 1]


def find_two_peaks(hist: G2Histogram, params: SyncAnalysisParams) -> PeakPair:
    """Locate the two coincidence peaks of a correlation histogram.

    Local maxima are ranked by height; the tallest and the tallest at least
    ``params.min_separation_ps`` away are accepted if both clear the
    background by ``params.threshold_sigma`` spreads. Positions are refined
    by an intensity-weighted centroid; the later tau is the A-source peak.
    """
    med, sigma_bg = _background_stats(hist)
    threshold = med + params.threshold_sigma * sigma_bg

    candidates, heights = _local_maxima_above(hist, threshold)
    if candidates.size < 2:
        raise PeaksNotFoundError(
            f"peaks not found: {candidates.size} qualifying maxima "
            f"(threshold {threshold:.2f} counts)"
        )
    order = candidates[np.argsort(heights)[::-1]]
    first = int(order[0])
    second = None
    for idx in order[1:]:
        if abs(int(idx) - first) * hist.bin_width_ps >= params.min_separation_ps:
            second = int(idx)
            break
    if second is None:
        raise PeaksNotFoundError("peaks not found: no second maximum beyond the minimum separation")

    (tau1, s1, h1), (tau2, s2, h2) = (
        _refine_centroid(hist, b, params.centroid_halfwidth_bins, med) for b in (first, second)
    )
    if tau1 >= tau2:
        return PeakPair(tau1, tau2, s1, s2, h1, h2)
    return PeakPair(tau2, tau1, s2, s1, h2, h1)


def estimate_sync(peaks: PeakPair, block_index: int = 0) -> SyncEstimate:
    """Offset = peak midpoint, round trip = peak separation."""
    delta = 0.5 * (peaks.tau_ab_ps + peaks.tau_ba_ps)
    round_trip = peaks.tau_ab_ps - peaks.tau_ba_ps
    delta_sigma = 0.5 * math.hypot(peaks.sigma_ab_ps, peaks.sigma_ba_ps)
    return SyncEstimate(block_index, delta, round_trip, delta_sigma)


def analyze_block(
    a_ts: np.ndarray,
    b_ts: np.ndarray,
    block_index: int,
    block_ps: int,
    params: SyncAnalysisParams,
) -> tuple[G2Histogram, Optional[SyncEstimate]]:
    """Histogram and estimate for one wall-clock block; None when peaks fail.

    Blocks are defined on the first record's timeline; the second record's
    slice is widened by the correlation window so boundary pairs survive.
    """
    t0 = block_index * block_ps
    t1 = t0 + block_ps
    _, hi_edge = _histogram_window(params)
    a_lo, a_hi = np.searchsorted(a_ts, [t0, t1])
    b_lo, b_hi = np.searchsorted(b_ts, [t0 + params.tau_min_ps, t1 + hi_edge])
    hist = compute_g2(a_ts[a_lo:a_hi], b_ts[b_lo:b_hi], params, block_ps)
    try:
        return hist, estimate_sync(find_two_peaks(hist, params), block_index)
    except PeaksNotFoundError:
        return hist, None


def complete_blocks(a_ts: np.ndarray, b_ts: np.ndarray, block_ps: int) -> int:
    """Number of blocks covered by two sorted timestamp records.

    The last event of a Poisson recording sits about one mean gap before the
    nominal end, so a block counts as covered once data reaches within 0.1%
    of its end, or within 20 mean gaps of the denser record if that is more,
    but never within more than half a block; trailing fractional blocks are
    dropped.
    """
    records = [ts for ts in (a_ts, b_ts) if ts.size]
    if not records:
        return 0
    last = max(int(ts[-1]) for ts in records)
    gaps = [(int(ts[-1]) - int(ts[0])) / (ts.size - 1) for ts in records if ts.size > 1]
    tolerance = max(1, block_ps // 1000, min(round(20 * min(gaps, default=0)), block_ps // 2))
    return int((last + tolerance) // block_ps)


def write_histogram_csv(hist: G2Histogram, path):
    """Write ``tau_ps,counts,g2`` rows for the occupied bins, in tau order: bin centre, raw
    count, normalised g2. A bin without a row holds 0.

    The centre of bin i, as ``_bin_positions`` gives it, is written exactly: an
    integer, or one ending in ``.5`` for an even bin width. g2 is the count over
    the accidentals per bin.
    """
    acc = hist.accidentals_per_bin

    def centres(part: slice) -> np.ndarray:
        floor, half = _bin_positions(hist.tau_min_ps, hist.bin_width_ps, hist.bins[part])
        return decimal_cells(floor, b",", half=bool(half))

    write_csv(path, "tau_ps,counts,g2", hist.counts, lambda n: f"{n},{n / acc:.10g}\n", centres)


def write_estimates_json(estimates: list[SyncEstimate], path):
    with open(path, "wb") as fh:
        fh.write((json.dumps([asdict(e) for e in estimates], indent=2) + "\n").encode())
