"""The mutation runner's table stays anchored, and its parse of pytest's summary keeps whole ids."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runner():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


runner = load_runner()


def test_failed_ids_keep_spaces_in_parametrised_ids():
    stdout = "\n".join(
        [
            "FAILED tests/test_a.py::test_x[a b-c] - AssertionError: x - y",
            "ERROR tests/test_b.py::TestC::test_y[1 2] - ValueError",
            "FAILED tests/test_a.py::test_z[an id that left no room for its message]",
            "tests/test_a.py::test_ok PASSED",
            "1 failed, 1 error, 1 passed in 0.1s",
        ]
    )
    assert runner.failed_ids(stdout) == {
        "tests/test_a.py::test_x[a b-c]",
        "tests/test_b.py::TestC::test_y[1 2]",
        "tests/test_a.py::test_z[an id that left no room for its message]",
    }


def test_every_mutation_text_occurs_once():
    for m in runner.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
