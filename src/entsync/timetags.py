"""Time-tag stream generation and detector/clock models.

Timestamps are integer picoseconds throughout: analysis bins are 16 ps, and
integers keep multi-hundred-second runs free of float accumulation error.
Gaussian jitter is drawn in double precision and rounded once.
"""
from __future__ import annotations

import dataclasses
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StreamFormatError

PS_PER_S = 1_000_000_000_000
MAX_TIMESTAMP_PS = 1 << 62
# Largest Gaussian timing spread: one second, 10**9 times that of a real
# source or detector. A draw would have to reach 4.6e6 sigma to pass 2**62 ps,
# so every jitter converts to int64 exactly and adding it cannot wrap.
MAX_JITTER_SIGMA_PS = 1e12

# Detection channel labels.
CH_ALICE_LOCAL = 0
CH_ALICE_REMOTE = 1
CH_BOB_LOCAL = 2
CH_BOB_REMOTE = 3


def check_timestamp_range(timestamps: np.ndarray) -> np.ndarray:
    """Return ``timestamps`` once every magnitude is checked to be below 2**62 ps."""
    if timestamps.size and max(-int(timestamps.min()), int(timestamps.max())) >= MAX_TIMESTAMP_PS:
        raise OverflowError("timestamp magnitude exceeds 2**62 ps")
    return timestamps


@dataclass(frozen=True)
class TimeTagStream:
    """Sorted detection timestamps (integer ps) with per-event channel labels."""

    timestamps_ps: np.ndarray
    channels: np.ndarray

    def __post_init__(self):
        # Checked before the conversion, which would make a 0-d input 1-d.
        shape = np.shape(self.timestamps_ps)
        if len(shape) != 1 or np.shape(self.channels) != shape:
            raise ValueError("timestamps and channels must be 1-d arrays of equal length")
        ts = np.ascontiguousarray(self.timestamps_ps, dtype=np.int64)
        ch = np.ascontiguousarray(self.channels, dtype=np.uint32)
        check_timestamp_range(ts)
        if np.any(ts[1:] < ts[:-1]):
            raise StreamFormatError("stream is not sorted by timestamp")
        ts.flags.writeable = False
        ch.flags.writeable = False
        object.__setattr__(self, "timestamps_ps", ts)
        object.__setattr__(self, "channels", ch)

    def __len__(self) -> int:
        return int(self.timestamps_ps.size)


def merge_streams(first: tuple, second: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A party's sorted timestamps and labels from its two (sorted timestamps, label) arms.

    Each time t is keyed 2t, or 2t + 1 in the larger-label arm, which cannot
    wrap below 2**62 ps. A stable sort merges the two sorted runs in one pass,
    ties stay in label order, and the low bit gives the label.
    """
    (ts, label), (new_ts, new_label) = sorted((first, second), key=lambda arm: arm[1])
    keys = np.empty(ts.size + new_ts.size, dtype="<i8")
    np.left_shift(ts, 1, out=keys[: ts.size])
    np.left_shift(new_ts, 1, out=keys[ts.size :])
    keys[ts.size :] |= 1
    keys.sort(kind="stable")
    # The low byte of each little-endian key, read without an int64 temporary.
    channels = np.array([label, new_label], dtype=np.uint32)[keys.view(np.uint8)[::8] & 1]
    keys >>= 1
    return keys, channels


@dataclass(frozen=True)
class PairSourceModel:
    """Photon-pair source: Poisson emission with per-photon timing spread."""

    pair_rate_hz: float
    emission_jitter_sigma_ps: float = 0.0
    heralding_efficiency: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.pair_rate_hz) or self.pair_rate_hz < 0:
            raise ConfigError("pair_rate_hz must be finite and >= 0")
        if not 0 <= self.emission_jitter_sigma_ps <= MAX_JITTER_SIGMA_PS:
            raise ConfigError("emission_jitter_sigma_ps must be in [0, 1e12]")
        if not 0.0 <= self.heralding_efficiency <= 1.0:
            raise ConfigError("heralding_efficiency must be in [0, 1]")


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency, timing jitter, dark counts, and dead time."""

    jitter_sigma_ps: float = 0.0
    efficiency: float = 1.0
    dark_rate_hz: float = 0.0
    dead_time_ps: int = 0

    def __post_init__(self):
        if not 0 <= self.jitter_sigma_ps <= MAX_JITTER_SIGMA_PS:
            raise ConfigError("jitter_sigma_ps must be in [0, 1e12]")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("efficiency must be in [0, 1]")
        if not math.isfinite(self.dark_rate_hz) or self.dark_rate_hz < 0:
            raise ConfigError("dark_rate_hz must be finite and >= 0")
        if self.dead_time_ps < 0:
            raise ConfigError("dead_time_ps must be >= 0")


@dataclass(frozen=True)
class ClockModel:
    """Local clock: reading = ideal * (1 + drift_ppb * 1e-9) + offset_ps.

    The clock must run forward (drift_ppb > -1e9), so readings keep the
    order of the events.
    """

    offset_ps: int = 0
    drift_ppb: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.drift_ppb):
            raise ConfigError("drift_ppb must be finite")
        if self.drift_ppb <= -1e9:
            raise ConfigError("drift_ppb must be > -1e9")
        if abs(int(self.offset_ps)) >= MAX_TIMESTAMP_PS:
            raise ConfigError("offset_ps magnitude must be < 2**62")


def _poisson_arrivals_ps(rng: np.random.Generator, rate_hz: float, duration_ps: float) -> np.ndarray:
    """Homogeneous Poisson arrival times in [0, duration_ps), integer ps, sorted."""
    if rate_hz == 0.0 or duration_ps <= 0:
        return np.empty(0, dtype=np.int64)
    mean_gap_ps = PS_PER_S / rate_hz
    expected = duration_ps / mean_gap_ps
    chunk = max(1024, int(expected + 6.0 * math.sqrt(expected + 1.0)))
    pieces = []
    t = 0.0
    while t < duration_ps:
        times = rng.exponential(mean_gap_ps, size=chunk)
        # Gaps near the largest float may sum to inf: past the run, so cut below.
        with np.errstate(over="ignore"):
            np.cumsum(times, out=times)
        times += t
        pieces.append(times)
        t = float(times[-1])
    times = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    del pieces
    # The times are sorted, so the ones inside the run are a prefix.
    times = times[: np.searchsorted(times, duration_ps, side="left")]
    # Each time is rounded into its own slot, so no second full-length array is made.
    out = times.view(np.int64)
    for part in chunk_slices(times.size, _DRAW_CHUNK):
        out[part] = np.rint(times[part])
    return out


def generate_pairs(source: PairSourceModel, duration_s: float, seed: int) -> np.ndarray:
    """Sorted emission times of one pair source over [0, duration_s).

    Emission follows a homogeneous Poisson process, and each pair sends one
    photon to its local arm and one to its remote arm at this common time. The
    arms' jitter and heralding are drawn at their detectors (``arm_detector``).
    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    emission = _poisson_arrivals_ps(rng, source.pair_rate_hz, duration_s * PS_PER_S)
    return check_timestamp_range(emission)


def arm_detector(source: PairSourceModel, det: DetectorModel) -> DetectorModel:
    """One detector model for an arm: its source's emission and heralding, then ``det``.

    Independent Bernoulli thinnings compose into one with the product of the
    efficiencies, and independent Gaussian jitters into one with
    sigma**2 = emission sigma**2 + detector sigma**2, so each arm makes one
    draw of each and its jitter is rounded once. Darks and dead time are the
    detector's own.
    """
    return dataclasses.replace(
        det,
        jitter_sigma_ps=math.hypot(source.emission_jitter_sigma_ps, det.jitter_sigma_ps),
        efficiency=source.heralding_efficiency * det.efficiency,
    )


# Arrivals thinned and jittered, emission times rounded, or gaps scanned for dead
# time per step: 512 kB of int64. Chunked numpy draws equal one whole draw, so no
# output depends on it.
_DRAW_CHUNK = 1 << 16


def _dead_time_filter(timestamps: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Keep events separated by >= dead_time_ps from the previous retained one.

    The last retained event is never later than the previous raw event, so an
    event at least dead_time_ps after its raw predecessor is always kept. Only
    the events closer than that to their predecessor need the sequential rule,
    and a run of them starts after an event that was kept.
    """
    keep = np.ones(timestamps.size, dtype=bool)
    # Found a chunk of gaps at a time, so no full-length int64 difference is made.
    candidates = np.concatenate([np.empty(0, dtype=np.intp)] + [
        np.flatnonzero(timestamps[gap.start + 1 : gap.stop + 1] - timestamps[gap] < dead_time_ps)
        + (gap.start + 1)
        for gap in chunk_slices(timestamps.size - 1, _DRAW_CHUNK)
    ])
    previous = -1
    for i, t, t_before in zip(
        candidates.tolist(),
        timestamps[candidates].tolist(),
        timestamps[candidates - 1].tolist(),
    ):
        if i - 1 != previous:
            # A new run: the event before it was kept and is the last kept one.
            last = t_before
        if t - last < dead_time_ps:
            keep[i] = False
        else:
            last = t
        previous = i
    return keep


def apply_detector(
    timestamps: np.ndarray, det: DetectorModel, duration_s: float, seed: int
) -> np.ndarray:
    """Sorted detection times of one detector, given its arrival times.

    Arrivals pass through efficiency, jitter, darks and dead time. Thinning,
    jitter and darks each draw from their own sub-generator of ``seed``, and
    the arrivals are thinned and jittered a chunk at a time straight into one
    owned buffer, which is sorted once in place. Dark counts are Poissonian
    over [0, duration_s) and merged with the signal before dead-time
    filtering: dead time acts on the physical detector, not per event origin.
    A zero jitter or dark rate draws zeros or nothing from its own sub-generator.
    """
    thin_rng, jitter_rng, dark_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(3)
    )
    n = timestamps.size

    kept = None
    if det.efficiency < 1.0:
        kept = np.empty(n, dtype=bool)
        for part in chunk_slices(n, _DRAW_CHUNK):
            np.less(thin_rng.random(part.stop - part.start), det.efficiency, out=kept[part])
    m = n if kept is None else int(np.count_nonzero(kept))
    n_dark = int(dark_rng.poisson(det.dark_rate_hz * duration_s))

    # Signal, then darks, in one owned buffer sorted in place; the caller's array is only read.
    out = np.empty(m + n_dark, dtype=np.int64)
    filled = 0
    for part in chunk_slices(n, _DRAW_CHUNK):
        arrivals = timestamps[part] if kept is None else timestamps[part][kept[part]]
        dest = out[filled : filled + arrivals.size]
        jitter = jitter_rng.normal(0.0, det.jitter_sigma_ps, arrivals.size)
        dest[:] = np.rint(jitter, out=jitter)
        dest += arrivals
        filled += arrivals.size
    del kept
    # Two products, each rounded as in random() * duration_s * PS_PER_S.
    dark = dark_rng.random(n_dark)
    dark *= duration_s
    dark *= PS_PER_S
    out[m:] = np.rint(dark, out=dark)
    out.sort(kind="stable")
    if det.dead_time_ps > 0 and out.size:
        out = out[_dead_time_filter(out, det.dead_time_ps)]

    return check_timestamp_range(out)


def apply_clock(
    timestamps: np.ndarray, channels: np.ndarray, clock: ClockModel
) -> TimeTagStream:
    """A party's record: its sorted ideal timestamps mapped to this clock's readings.

    reading = round(t * (1 + drift_ppb * 1e-9)) + offset_ps. With zero drift
    the mapping is an exact integer translation. The record is built, and its
    range and order checked, here.
    """
    offset = np.int64(clock.offset_ps)
    if clock.drift_ppb == 0.0:
        out = timestamps + offset
    else:
        scaled = np.rint(timestamps.astype(np.float64) * (1.0 + clock.drift_ppb * 1e-9))
        if np.any(np.abs(scaled) >= float(MAX_TIMESTAMP_PS)):
            raise OverflowError("clock transform overflows the 2**62 ps timestamp bound")
        out = scaled.astype(np.int64) + offset
    # Both terms are below 2**62, so the sum cannot wrap; TimeTagStream checks the bound.
    return TimeTagStream(out, channels)


# --- file formats --------------------------------------------------------
#
# Binary: little-endian 16-byte records (int64 timestamp_ps, uint32 channel,
# uint32 reserved == 0). CSV: header line "timestamp_ps,channel".

RECORD_DTYPE = np.dtype([("timestamp_ps", "<i8"), ("channel", "<u4"), ("reserved", "<u4")])


# Binary tag records read or written per step: 1 MB.
_IO_CHUNK = 1 << 16
# Text rows formatted and written per step by the CSV writers: under 1 MB of
# fixed-width cells, as a row's cells take at most 64 bytes.
_TEXT_ROWS = 1 << 14


def chunk_slices(n: int, size: int):
    """Consecutive slices of at most ``size`` items covering ``range(n)``."""
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def atomic_write_bytes(path, chunks):
    """Write an iterable of bytes-like chunks to path through a temporary file.

    Readers never see a partial file; a contiguous array chunk is written without a copy.
    """
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def write_tags_binary(stream: TimeTagStream, path):
    def records():
        rec = np.zeros(min(len(stream), _IO_CHUNK), dtype=RECORD_DTYPE)
        for part in chunk_slices(len(stream), _IO_CHUNK):
            out = rec[: part.stop - part.start]
            out["timestamp_ps"] = stream.timestamps_ps[part]
            out["channel"] = stream.channels[part]
            yield out

    atomic_write_bytes(path, records())


def read_tags_binary(path) -> TimeTagStream:
    """A binary tag file's record, read into arrays sized from the file's length."""
    size = RECORD_DTYPE.itemsize
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            # A pipe reports no length: it would read as an empty record.
            raise StreamFormatError(f"binary tags must be a regular file: {path}")
        n, extra = divmod(info.st_size, size)
        if extra:
            raise StreamFormatError(f"truncated record at byte offset {n * size} in {path}")
        timestamps = np.empty(n, dtype=np.int64)
        channels = np.empty(n, dtype=np.uint32)
        rec = np.empty(min(n, _IO_CHUNK), dtype=RECORD_DTYPE)
        for part in chunk_slices(n, _IO_CHUNK):
            buf = rec[: part.stop - part.start]
            got = fh.readinto(buf)
            if got != buf.nbytes:
                offset = (part.start + got // size) * size
                raise StreamFormatError(f"truncated record at byte offset {offset} in {path}")
            timestamps[part] = buf["timestamp_ps"]
            channels[part] = buf["channel"]
    return _stream_from_file(path, timestamps, channels)


def _stream_from_file(path, timestamps, channels) -> TimeTagStream:
    """A tag file's stream; an out-of-range or unsorted value is a format error naming the file."""
    try:
        return TimeTagStream(np.asarray(timestamps, np.int64), np.asarray(channels, np.uint32))
    except OverflowError as exc:
        raise StreamFormatError(f"out-of-range value in {path}: {exc}") from None
    except StreamFormatError as exc:
        raise StreamFormatError(f"{exc} in {path}") from None


def join_text_columns(*columns: np.ndarray) -> bytes:
    """Concatenate equal-length bytes-string columns row by row into one payload.

    Each row is its cells back to back, so the columns carry their own
    separators. Fixed-width numpy strings are NUL-padded and formatted numbers
    never contain NUL, so dropping every NUL byte leaves exactly the text.
    """
    rows = columns[0]
    for column in columns[1:]:
        # np.char.add is np.strings.add on numpy 2 and also exists on numpy 1.24.
        rows = np.char.add(rows, column)
    return rows.tobytes().translate(None, b"\0")


def format_each_distinct(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """``fmt(v)`` encoded once per distinct value, and each value's index into those cells.

    ``cells[inverse]`` is every value's text, so a writer can take it a slice
    at a time. The values are integers, so equal values have equal text.
    """
    # Asking for return_index makes np.unique sort stably, which on a histogram's
    # long runs of equal counts is about four times faster than its default sort.
    distinct, _, inverse = np.unique(values, return_index=True, return_inverse=True)
    cells = np.array([fmt(v) for v in distinct.tolist()], dtype=np.bytes_)
    return cells, inverse


def write_tags_csv(stream: TimeTagStream, path):
    labels = np.unique(stream.channels)
    cells = np.array([f"{c}\n" for c in labels.tolist()], dtype=np.bytes_)

    def rows():
        yield b"timestamp_ps,channel\n"
        for part in chunk_slices(len(stream), _TEXT_ROWS):
            yield join_text_columns(
                np.char.add(stream.timestamps_ps[part].astype(np.bytes_), b","),
                cells[np.searchsorted(labels, stream.channels[part])],
            )

    atomic_write_bytes(path, rows())


def read_tags_csv(path) -> TimeTagStream:
    # A byte that is not UTF-8 is kept as a lone surrogate, which int() rejects,
    # so it is a malformed line like any other.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "timestamp_ps,channel":
            raise StreamFormatError(f"bad CSV header at line 1 in {path}: {header!r}")
        ts, ch = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                ts.append(int(parts[0]))
                ch.append(int(parts[1]))
            except (IndexError, ValueError):
                raise StreamFormatError(f"malformed record at line {lineno} in {path}: {line!r}")
    return _stream_from_file(path, ts, ch)


def read_tags(path) -> TimeTagStream:
    """Dispatch on extension: .csv is text, anything else is the binary format."""
    if str(path).lower().endswith(".csv"):
        return read_tags_csv(path)
    return read_tags_binary(path)
