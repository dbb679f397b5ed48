"""Arbitrary bytes at the command line's file inputs give an exit code, never a
traceback, and every bad value of a config field is caught by the model that owns it.

Each example writes its file into its own temporary directory, so no example
sees another's output.
"""
import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from entsync.cli import main as cli_main
from entsync.errors import ConfigError
from entsync.scenario import TimingScenario, TomoScenario, parse_config

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
