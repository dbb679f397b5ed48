"""Arbitrary bytes at the command line's file inputs give an exit code, never a traceback.

Each example writes its file into its own temporary directory, so no example
sees another's output.
"""
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from entsync.cli import main as cli_main

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
