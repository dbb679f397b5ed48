"""Time-tag stream generation and detector/clock models.

Timestamps are integer picoseconds throughout: analysis bins are 16 ps, and
each later stage (jitter, channel delay, clock) adds an integer to an exact
time. Gaussian jitter is drawn in double precision and rounded once. Emission
times are the float64 running sum of exponential gaps, so past 2**53 ps
(2.5 h) they fall on a grid of 2 ps or coarser; both photons of a pair share
that time, so the pair's tau is unaffected.
"""
from __future__ import annotations

import dataclasses
import math
import os
import re
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


def _at_record(exc: Exception, index: int) -> Exception:
    """``exc``, naming the index of the first bad record as ``exc.record``."""
    exc.record = index
    return exc


@dataclass(frozen=True)
class TimeTagStream:
    """Sorted detection timestamps (integer ps) with per-event channel labels.

    An out-of-range or unsorted record raises an error whose ``record`` is the
    index of the first such record: out of range, or below the one before it.
    """

    timestamps_ps: np.ndarray
    channels: np.ndarray

    def __post_init__(self):
        # Checked before the conversion, which would make a 0-d input 1-d.
        shape = np.shape(self.timestamps_ps)
        if len(shape) != 1 or np.shape(self.channels) != shape:
            raise ValueError("timestamps and channels must be 1-d arrays of equal length")
        ts = np.ascontiguousarray(self.timestamps_ps, dtype=np.int64)
        ch = np.ascontiguousarray(self.channels, dtype=np.uint32)
        # Each index is searched for only once its check has failed.
        if ts.size and max(-int(ts.min()), int(ts.max())) >= MAX_TIMESTAMP_PS:
            first = np.argmax((ts >= MAX_TIMESTAMP_PS) | (ts <= -MAX_TIMESTAMP_PS))
            raise _at_record(OverflowError("timestamp magnitude exceeds 2**62 ps"), int(first))
        if np.any(ts[1:] < ts[:-1]):
            first = np.argmax(ts[1:] < ts[:-1]) + 1
            raise _at_record(StreamFormatError("stream is not sorted by timestamp"), int(first))
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
        if not 0 <= self.pair_rate_hz <= PS_PER_S:
            raise ConfigError("pair_rate_hz must be in [0, 1e12]")
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
        if not 0 <= self.dark_rate_hz <= PS_PER_S:
            raise ConfigError("dark_rate_hz must be in [0, 1e12]")
        if self.dead_time_ps < 0:
            raise ConfigError("dead_time_ps must be >= 0")


@dataclass(frozen=True)
class ClockModel:
    """Local clock: reading = t + round(t * (drift_ppb * 1e-9)) + offset_ps.

    Only the drift term is rounded, so every reading is exact to 1 ps. Below
    2**62 ps a float64 t moves in steps of at most 1 024 ps, so at |drift_ppb|
    up to 1e5 (100 ppm) the drift term moves by at most about 0.1 ps per step,
    and readings keep the order of the events.
    """

    offset_ps: int = 0
    drift_ppb: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.drift_ppb):
            raise ConfigError("drift_ppb must be finite")
        if abs(self.drift_ppb) > 1e5:
            raise ConfigError("drift_ppb must be in [-1e5, 1e5]")
        if abs(int(self.offset_ps)) >= MAX_TIMESTAMP_PS:
            raise ConfigError("offset_ps magnitude must be < 2**62")

    def reads_in_range(self, t_ps: int) -> bool:
        """Whether apply_clock's reading of ideal time ``t_ps`` is below 2**62 ps in magnitude."""
        return abs(t_ps + round(t_ps * (self.drift_ppb * 1e-9)) + self.offset_ps) < MAX_TIMESTAMP_PS


def _poisson_arrivals_ps(rng: np.random.Generator, rate_hz: float, duration_ps: float) -> np.ndarray:
    """Homogeneous Poisson arrival times in [0, duration_ps), integer ps, sorted."""
    if rate_hz == 0.0:
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
    return _poisson_arrivals_ps(rng, source.pair_rate_hz, duration_s * PS_PER_S)


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
    if det.dead_time_ps > 0:
        out = out[_dead_time_filter(out, det.dead_time_ps)]

    return out


def apply_clock(
    timestamps: np.ndarray, channels: np.ndarray, clock: ClockModel
) -> TimeTagStream:
    """A party's record: its sorted ideal timestamps mapped to this clock's readings.

    The reading is ``ClockModel``'s. The record is built, and its range and
    order checked, here.
    """
    offset = np.int64(clock.offset_ps)
    if clock.drift_ppb == 0.0:
        out = timestamps + offset
    else:
        out = np.rint(timestamps * (clock.drift_ppb * 1e-9)).astype(np.int64)
        out += timestamps
        out += offset
    # TimingScenario proves t, offset_ps and their reading below 2**62; TimeTagStream checks it.
    return TimeTagStream(out, channels)


# --- file formats --------------------------------------------------------
#
# Binary: little-endian 16-byte records (int64 timestamp_ps, uint32 channel,
# uint32 reserved == 0). CSV: header line "timestamp_ps,channel".

RECORD_DTYPE = np.dtype([("timestamp_ps", "<i8"), ("channel", "<u4"), ("reserved", "<u4")])
# A CSV record line, once stripped: two decimal integers of ASCII digits, each
# with an optional "-". A negative channel is read, so that it is out of range.
_CSV_RECORD = re.compile(r"(-?[0-9]+),(-?[0-9]+)")


# Binary tag records read or written per step: 1 MB.
_IO_CHUNK = 1 << 16
# Text rows formatted and written per step by write_csv: under 1 MB of
# fixed-width cells, as a row's cells take at most 64 bytes.
_TEXT_ROWS = 1 << 14


def chunk_slices(n: int, size: int):
    """Consecutive slices of at most ``size`` items covering ``range(n)``."""
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


# "00" to "99", then the same without a leading zero, then two NULs: digit
# pair r, r + 100 for a number's leading pair, 200 for a pair past its digits.
_DIGIT_PAIRS = np.array(
    [[48 + r // 10, 48 + r % 10] for r in range(100)]
    + [[48 + r // 10 if r >= 10 else 0, 48 + r % 10] for r in range(100)]
    + [[0, 0]],
    dtype=np.uint8,
)


def decimal_cells(values: np.ndarray, suffix: bytes, half: bool = False) -> np.ndarray:
    """Each int64 of ``values``, plus 0.5 when ``half``, as decimal text then ``suffix``.

    The cells are NUL-padded fixed-width bytes, for ``write_csv``'s first
    column: a sign, the digits right-aligned, ".5" when ``half``, then the
    suffix. The digits are taken two per division by 100. A half-integer is
    written by its magnitude: -998 + 0.5 is "-997.5", whose digits are those
    of ~-998 = 997.
    """
    negative = values < 0
    # Negation wraps -2**63 to itself, whose uint64 view is its magnitude.
    magnitude = np.where(negative, ~values if half else -values, values).view(np.uint64)
    tail = np.frombuffer(b".5" * half + suffix, dtype=np.uint8)
    n_pairs = max(1, (len(str(int(magnitude.max(initial=0)))) + 1) // 2)
    width = 1 + 2 * n_pairs + tail.size
    text = np.zeros((values.size, width), dtype=np.uint8)
    text[negative, 0] = ord("-")
    text[:, width - tail.size :] = tail
    for i in range(n_pairs):
        rest, pair = np.divmod(magnitude, 100)
        pair += np.uint64(100) * (rest == 0)
        if i:
            # A number has no digits left for this pair: 0 + 100 + 100.
            pair += np.uint64(100) * (magnitude == 0)
        magnitude = rest
        text[:, 2 * (n_pairs - i) - 1 : 2 * (n_pairs - i) + 1] = _DIGIT_PAIRS[pair]
    return text.view(f"S{width}").ravel()


def write_csv(path, header: str, values: np.ndarray, fmt, first_column):
    """Write a header line, then one row per integer of ``values``.

    Row i is ``first_column(part)``'s cell for it, separator included, then
    ``fmt(values[i])``, the rest of the row with its newline. ``first_column``
    takes a slice of at most ``_TEXT_ROWS`` rows and gives their cells as a
    bytes-string array. ``fmt`` runs once per distinct value, so equal values
    share one cell, found by a binary search into the sorted distinct values.
    Fixed-width numpy strings are NUL-padded, ``decimal_cells`` pads inside
    its cells too, and formatted numbers never contain NUL, so dropping every
    NUL byte leaves exactly the text.
    """
    distinct = np.unique(values)
    cells = np.array([fmt(v) for v in distinct.tolist()], dtype=np.bytes_)

    def rows():
        yield f"{header}\n".encode()
        for part in chunk_slices(values.size, _TEXT_ROWS):
            # np.char.add is np.strings.add on numpy 2 and also exists on numpy 1.24.
            text = np.char.add(first_column(part), cells[np.searchsorted(distinct, values[part])])
            yield text.tobytes().translate(None, b"\0")

    with open(path, "wb") as fh:
        fh.writelines(rows())


def write_tags_binary(stream: TimeTagStream, path):
    rec = np.zeros(min(len(stream), _IO_CHUNK), dtype=RECORD_DTYPE)
    with open(path, "wb") as fh:
        for part in chunk_slices(len(stream), _IO_CHUNK):
            out = rec[: part.stop - part.start]
            out["timestamp_ps"] = stream.timestamps_ps[part]
            out["channel"] = stream.channels[part]
            fh.write(out)


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
            reserved = np.flatnonzero(buf["reserved"])
            if reserved.size:
                offset = (part.start + int(reserved[0])) * size
                raise StreamFormatError(
                    f"non-zero reserved word in record at byte offset {offset} in {path}"
                )
            timestamps[part] = buf["timestamp_ps"]
            channels[part] = buf["channel"]
    return _stream_from_file(
        path, timestamps, channels, lambda i: f"record at byte offset {i * size}"
    )


def _int_array(values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype``; a value it cannot hold names its index."""
    try:
        return np.asarray(values, dtype)
    except OverflowError as exc:
        info = np.iinfo(dtype)
        first = next(i for i, v in enumerate(values) if not info.min <= v <= info.max)
        raise _at_record(exc, first)


def _stream_from_file(path, timestamps, channels, where) -> TimeTagStream:
    """A tag file's stream; an out-of-range or unsorted value is a format error.

    The error names the file and, by ``where(index)``, its first bad record.
    """
    try:
        return TimeTagStream(_int_array(timestamps, np.int64), _int_array(channels, np.uint32))
    except OverflowError as exc:
        message = f"out-of-range value in {path}: {where(exc.record)}: {exc}"
    except StreamFormatError as exc:
        message = f"{exc} in {path}: {where(exc.record)}"
    raise StreamFormatError(message)


def write_tags_csv(stream: TimeTagStream, path):
    write_csv(
        path,
        "timestamp_ps,channel",
        stream.channels,
        lambda c: f"{c}\n",
        lambda part: decimal_cells(stream.timestamps_ps[part], b","),
    )


def read_tags_csv(path) -> TimeTagStream:
    # A byte that is not UTF-8 is kept as a lone surrogate, which no record
    # matches, so it is a malformed line like any other.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "timestamp_ps,channel":
            raise StreamFormatError(f"bad CSV header at line 1 in {path}: {header!r}")
        ts, ch, blanks = [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                blanks.append(lineno)
                continue
            record = _CSV_RECORD.fullmatch(line)
            # int() also refuses a cell of more digits than its limit, 4300 by default.
            try:
                if record is None:
                    raise ValueError(line)
                ts.append(int(record[1]))
                ch.append(int(record[2]))
            except ValueError:
                raise StreamFormatError(f"malformed record at line {lineno} in {path}: {line!r}")

    def where(index: int) -> str:
        # Record i is on line i + 2, moved down by each blank line at or before it.
        line = index + 2
        for blank in blanks:
            line += blank <= line
        return f"record at line {line}"

    return _stream_from_file(path, ts, ch, where)


def read_tags(path) -> TimeTagStream:
    """Dispatch on extension: .csv is text, anything else is the binary format."""
    if str(path).lower().endswith(".csv"):
        return read_tags_csv(path)
    return read_tags_binary(path)
