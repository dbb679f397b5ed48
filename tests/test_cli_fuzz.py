"""Arbitrary bytes at the command line's file inputs give an exit code, never a
traceback; a broken tag file is an i/o error naming the file; every bad value of
a config field is caught by the model that owns it; and every timing scenario
the models accept runs.

Each example writes its file into its own temporary directory, so no example
sees another's output.
"""
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from entsync.channel import C_M_PER_PS
from entsync.cli import main as cli_main
from entsync.errors import ConfigError
from entsync.scenario import TimingScenario, TomoScenario, parse_config, simulate_timing
from entsync.timetags import (
    MAX_TIMESTAMP_PS,
    RECORD_DTYPE,
    TimeTagStream,
    write_tags_binary,
    write_tags_csv,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# One block and an eight-bin window, so an example writes at most one small histogram.
ANALYZE_FLAGS = ["--n-blocks", "1", "--tau-min-ps", "-64", "--tau-max-ps", "64"]
CSV_HEADER = b"timestamp_ps,channel\n"


def exit_code(name: str, data: bytes, argv) -> int:
    """Run ``cli.main(argv(path, out_dir))`` on ``data`` written to ``name`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        return cli_main(argv(str(path), str(Path(tmp) / "out")))


@settings(max_examples=150, deadline=None)
@given(cmd=st.sampled_from(["simulate", "tomo", "predict"]), data=st.binary(max_size=64))
def test_any_config_bytes_exit_with_a_code(cmd, data):
    def argv(config, out):
        return [cmd, "--config", config] + ([] if cmd == "predict" else ["--out", out])

    assert exit_code("config.json", data, argv) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(
    suffix=st.sampled_from([".csv", ".tt"]),
    # Behind a CSV header, the bytes reach the record parser.
    prefix=st.sampled_from([b"", CSV_HEADER]),
    data=st.binary(max_size=64),
)
def test_any_tag_file_bytes_exit_with_a_code(suffix, prefix, data):
    def argv(tags, out):
        return ["analyze", "--alice", tags, "--bob", tags, "--out", out, *ANALYZE_FLAGS]

    assert exit_code("tags" + suffix, prefix + data, argv) in (0, 1, 2, 3)


def _timing_base() -> dict:
    """smoke.json with a schedule change and a detector, so both have fields to reach."""
    cfg = json.loads((SCENARIO_DIR / "smoke.json").read_text())
    cfg["schedule"] = [{"time_s": 40.0, "channel": dict(cfg["channel"], eve_length_ab_m=11.0)}]
    cfg["detectors"] = {
        "bob_remote": {
            "jitter_sigma_ps": 40.0, "efficiency": 0.7, "dark_rate_hz": 1000.0,
            "dead_time_ps": 25_000,
        }
    }
    return cfg


def _field_paths(node, path=()):
    """Every key and list index under ``node``, at any depth, as a tuple of steps."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


def _dotted(path) -> str:
    """A path as parse_config names it, e.g. ``schedule[0].channel.group_index``."""
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else (f".{step}" if out else step)
    return out


BASES = [
    (TimingScenario, _timing_base()),
    (TomoScenario, json.loads((SCENARIO_DIR / "tomo_full.json").read_text())),
]
FIELDS = [(cls, base, path) for cls, base in BASES for path in _field_paths(base)]
BAD_VALUES = [
    "x", [1], {"x": 1}, True, None, math.nan, math.inf, -math.inf, 1e300, -1e300, -1, 0, 2**63,
]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(BAD_VALUES))
def test_every_field_value_is_accepted_or_named(field, value):
    # Only the model is built; nothing is run, so no example allocates.
    cls, base, path = field
    cfg = copy.deepcopy(base)
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    try:
        parse_config(cls, cfg)
    except ConfigError as exc:
        # A check that spans an object's fields may name the object instead.
        names = [_dotted(path), _dotted(path[:-1])] if len(path) > 1 else [_dotted(path)]
        assert any(name in str(exc) for name in names), str(exc)


# --- broken tag files -----------------------------------------------------------

# A small valid record: strictly increasing times, so swapping any two unsorts it.
VALID_TAGS = TimeTagStream(
    np.array([-(10**15), -7, 0, 3, 1_000, 2_000_000, 10**12, 2**62 - 1], dtype=np.int64),
    np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint32),
)
OUT_OF_RANGE = [2**62, -(2**62), 2**62 + 12_345, 2**63 - 1, -(2**63)]
# int() reads the last four, which a record's grammar of ASCII decimal integers refuses.
NON_INTEGERS = ["x", "", "1.5", "1e3", "0x10", "--1", " ", "1_000", "+2000", "1 000", "\uff13000"]


@st.composite
def broken_tag_files(draw):
    """(suffix, file bytes, the error stderr must hold, with {path} for the file's path).

    Every error names the position of the broken record.
    """
    suffix = draw(st.sampled_from([".tt", ".csv"]))

    def record_at(i: int) -> str:
        return f"byte offset {i * RECORD_DTYPE.itemsize}" if suffix == ".tt" else f"line {i + 2}"

    ts = VALID_TAGS.timestamps_ps.tolist()
    ch = VALID_TAGS.channels.tolist()
    own_kinds = ["cell", "extra"] if suffix == ".csv" else ["reserved"]
    kinds = ["truncate", "swap", "range"] + own_kinds
    kind = draw(st.sampled_from(kinds))
    r = draw(st.integers(0, len(ts) - 1))
    if kind == "swap":
        s = draw(st.integers(0, len(ts) - 1).filter(lambda s: s != r))
        ts[r], ts[s], ch[r], ch[s] = ts[s], ts[r], ch[s], ch[r]
        # The record after the earlier swapped one is the first below its predecessor.
        first = record_at(min(r, s) + 1)
        expected = f"stream is not sorted by timestamp in {{path}}: record at {first}"
    elif kind == "range":
        # A CSV cell may also hold a value that int64 cannot.
        extra = [2**63, -(2**63) - 1, 10**30] if suffix == ".csv" else []
        ts[r] = draw(st.sampled_from(OUT_OF_RANGE + extra))
        expected = f"out-of-range value in {{path}}: record at {record_at(r)}: "

    if suffix == ".tt":
        rec = np.zeros(len(ts), dtype=RECORD_DTYPE)
        rec["timestamp_ps"], rec["channel"] = ts, ch
        if kind == "reserved":
            rec["reserved"][r] = draw(st.sampled_from([1, 2**31, 2**32 - 1]))
            expected = f"non-zero reserved word in record at {record_at(r)} in {{path}}"
        data = rec.tobytes()
        if kind == "truncate":
            # Inside record r: a cut at a record boundary leaves a valid shorter file.
            start = r * RECORD_DTYPE.itemsize
            data = data[: start + draw(st.integers(1, RECORD_DTYPE.itemsize - 1))]
            expected = f"truncated record at byte offset {start} in {{path}}"
        return suffix, data, expected

    cells = [[str(t), str(c)] for t, c in zip(ts, ch)]
    if kind == "cell":
        cells[r][draw(st.integers(0, 1))] = draw(st.sampled_from(NON_INTEGERS))
    elif kind == "extra":
        # A third cell, empty or not, is not a record either.
        cells[r].append(draw(st.sampled_from(["", "0", "garbage"])))
    lines = ["timestamp_ps,channel\n"] + [",".join(row) + "\n" for row in cells]
    data = "".join(lines).encode()
    if kind == "truncate":
        # Inside row r's timestamp cell or just after its comma, so the row loses its channel.
        start = len("".join(lines[: r + 1]))
        data = data[: start + draw(st.integers(1, len(cells[r][0]) + 1))]
    if kind in ("cell", "extra", "truncate"):
        expected = f"malformed record at line {r + 2} in {{path}}"
    return suffix, data, expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(broken=broken_tag_files(), alice=st.booleans())
def test_broken_tag_file_is_an_io_error_naming_it(broken, alice):
    suffix, data, expected = broken
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        bad, good = Path(tmp) / ("bad" + suffix), Path(tmp) / ("good" + suffix)
        bad.write_bytes(data)
        (write_tags_binary if suffix == ".tt" else write_tags_csv)(VALID_TAGS, good)
        pair = (bad, good) if alice else (good, bad)
        out = Path(tmp) / "out"
        argv = ["analyze", "--alice", str(pair[0]), "--bob", str(pair[1]), "--out", str(out)]
        assert cli_main(argv + ANALYZE_FLAGS) == 3
        assert not out.exists()
    assert err.getvalue().startswith("i/o error: ")
    assert expected.format(path=bad) in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("cell", NON_INTEGERS)
def test_csv_cell_outside_the_record_grammar_is_malformed(tmp_path, capsys, cell, column):
    row = ["7", "1"]
    row[column] = cell
    tags = tmp_path / "tags.csv"
    tags.write_text(f"timestamp_ps,channel\n0,0\n{','.join(row)}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["analyze", "--alice", str(tags), "--bob", str(tags), "--out", str(out)]
    assert cli_main(argv + ANALYZE_FLAGS) == 3
    assert f"malformed record at line 3 in {tags}" in capsys.readouterr().err
    assert not out.exists()


# --- every accepted timing scenario runs -------------------------------------------

# The longest fiber whose delay fits 2**62 ps at group index 1.
MAX_LENGTH_M = MAX_TIMESTAMP_PS * C_M_PER_PS


def _slow_clocks() -> dict:
    """smoke.json with clocks that read every event below 2**62 ps, though its ideal times pass it.

    1 Hz sources for 200 s over 2**62 - 10**14 ps of link at group index 1: the
    last arrivals lie about 1e14 ps past 2**62, and both clocks run 100 ppm slow,
    which takes about 4.6e14 ps off a reading there.
    """
    cfg = json.loads((SCENARIO_DIR / "smoke.json").read_text())
    source, clock = {"pair_rate_hz": 1.0}, {"drift_ppb": -1e5}
    cfg.update(
        duration_s=200.0, alice_source=source, bob_source=source, alice_clock=clock,
        bob_clock=clock,
        channel={"base_length_m": (MAX_TIMESTAMP_PS - 10**14) * C_M_PER_PS, "group_index": 1.0},
    )
    return cfg


def test_ideal_times_past_the_timestamp_range_exit_1(tmp_path, capsys):
    config = tmp_path / "slow.json"
    config.write_text(json.dumps(_slow_clocks()))
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: duration_s + the longest delay + 64 s must be < 2**62 ps" in err
    assert not out.exists()


def _up_to(limit: float, typical: float):
    """Floats in [0, limit], half of them drawn from [0, typical] so most configs are built."""
    return st.one_of(st.floats(0.0, typical), st.floats(0.0, limit))


@st.composite
def extreme_timing_configs(draw):
    """Timing configs across the extremes each model allows, with ~20 expected events per arm.

    The analysis is left at its defaults; one block spans the whole run.
    """
    duration_s = draw(st.one_of(st.floats(2e-6, 100.0), st.floats(2e-6, 5e6)))

    def rate():
        return draw(st.floats(0.0, 20.0)) / duration_s

    def channel():
        group_index = draw(st.one_of(st.floats(1.0, 2.0), st.floats(1.0, 1e6)))
        lengths = {
            name: draw(_up_to(1.0, 1e-12)) * MAX_LENGTH_M / group_index
            for name in ("base_length_m", "eve_length_ab_m", "eve_length_ba_m")
        }
        return {**lengths, "group_index": group_index}

    def source():
        return {
            "pair_rate_hz": rate(),
            "emission_jitter_sigma_ps": draw(_up_to(1e12, 1e3)),
            "heralding_efficiency": draw(st.floats(0.0, 1.0)),
        }

    def detector():
        return {
            "jitter_sigma_ps": draw(_up_to(1e12, 1e3)),
            "efficiency": draw(st.floats(0.0, 1.0)),
            "dark_rate_hz": rate(),
            "dead_time_ps": draw(st.integers(0, 2**64)),
        }

    def clock():
        drift = st.floats(-1e5, 1e5)
        return {
            "offset_ps": draw(st.one_of(
                st.integers(-(10**13), 10**13), st.integers(-(2**62) + 1, 2**62 - 1)
            )),
            "drift_ppb": draw(st.one_of(st.floats(-1e3, 1e3), drift)),
        }

    fractions = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=2, unique=True)))
    return {
        "duration_s": duration_s,
        "block_s": duration_s,
        "seed": draw(st.integers(0, 2**64)),
        "alice_source": source(),
        "bob_source": source(),
        "channel": channel(),
        "schedule": [{"time_s": f * duration_s, "channel": channel()} for f in fractions],
        "alice_clock": clock(),
        "bob_clock": clock(),
        "detectors": {
            key: detector() for key in ("alice_local", "alice_remote", "bob_local", "bob_remote")
        },
    }


# Each example simulates a run, so a failing one is reported unshrunk.
@settings(
    max_examples=300, derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate]
)
@given(cfg=extreme_timing_configs())
@example(cfg=_slow_clocks())
def test_every_built_timing_scenario_runs(cfg):
    # The models bound every timestamp of the run, so no stage may overflow or
    # warn; pytest turns warnings into errors.
    try:
        sc = parse_config(TimingScenario, cfg)
    except ConfigError:
        return
    simulate_timing(sc)
