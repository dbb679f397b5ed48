"""A run's output directory appears whole or not at all, and a used one is left as it was."""
import hashlib
import json
import os
import stat

import pytest

from entsync import scenario
from entsync.cli import main as cli_main

TOMO = {"seed": 42, "attack": "none", "counts_per_setting": 2000.0, "reps": 4}
USED = "a run writes only to a new or empty directory"


def smoke(scenario_dir, out) -> list:
    return ["simulate", "--config", str(scenario_dir / "smoke.json"), "--out", str(out)]


def digests(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


@pytest.fixture(scope="module")
def tags(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("tags") / "smoke"
    assert cli_main(smoke(scenario_dir, out)) == 0
    return out


@pytest.fixture(params=["simulate", "analyze", "tomo"])
def argv(request, scenario_dir, tags, tmp_path_factory):
    """One command's arguments, all but ``--out``."""
    if request.param == "simulate":
        return ["simulate", "--config", str(scenario_dir / "smoke.json")]
    if request.param == "analyze":
        return ["analyze", "--alice", str(tags / "alice.tt"), "--bob", str(tags / "bob.tt")]
    config = tmp_path_factory.mktemp("tomo") / "tomo.json"
    config.write_text(json.dumps(TOMO))
    return ["tomo", "--config", str(config)]


def test_rerun_into_a_used_directory_exits_3_and_leaves_it(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(argv + ["--out", str(out)]) == 0
    # Edited by hand, so a rerun's own bytes would show.
    first = next(out.iterdir())
    first.write_bytes(b"the user's own")
    before = digests(out)
    assert cli_main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{USED}: '{out}'" in err
    assert digests(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_an_empty_directory_is_replaced_by_the_run(argv, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert any(p.name in ("estimates.json", "summary.json") for p in out.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_a_file_at_out_exits_3_and_is_kept(argv, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"not a directory")
    assert cli_main(argv + ["--out", str(out)]) == 3
    assert f"{USED}: '{out}'" in capsys.readouterr().err
    assert out.read_bytes() == b"not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_missing_parents_are_made(scenario_dir, tmp_path):
    out = tmp_path / "a" / "b" / "out"
    assert cli_main(smoke(scenario_dir, out)) == 0
    assert (out / "summary.json").is_file()
    assert [p.name for p in out.parent.iterdir()] == ["out"]


def test_csv_tags_into_a_binary_run_leave_it_alone(scenario_dir, tags, capsys):
    before = digests(tags)
    assert cli_main(smoke(scenario_dir, tags) + ["--tag-format", "csv"]) == 3
    assert USED in capsys.readouterr().err
    assert digests(tags) == before


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_a_run_that_fails_mid_write_leaves_nothing(scenario_dir, tmp_path, monkeypatch, error):
    real = scenario.write_histogram_csv

    def fails_on_block_1(hist, path):
        if path.name == "g2_block_001.csv":
            raise error("failed on block 1")
        real(hist, path)

    monkeypatch.setattr(scenario, "write_histogram_csv", fails_on_block_1)
    argv = smoke(scenario_dir, tmp_path / "out")
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli_main(argv)
    else:
        assert cli_main(argv) == 3
    assert list(tmp_path.iterdir()) == []


def test_the_published_directory_has_the_mode_mkdir_gives(tmp_path):
    config = tmp_path / "tomo.json"
    config.write_text(json.dumps(TOMO))
    old = os.umask(0o027)
    try:
        (tmp_path / "reference").mkdir()
        assert cli_main(["tomo", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)

    def mode(name):
        return stat.S_IMODE((tmp_path / name).stat().st_mode)

    assert mode("out") == mode("reference") == 0o750
