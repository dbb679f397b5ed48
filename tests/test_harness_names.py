"""The benchmark harness finds every entsync name it wraps.

``perfbench/worker.py`` replaces functions by name where their callers look
them up. A rename that misses the harness would fail every benchmark pass,
so this test installs both of its wrappers in a fresh interpreter.
"""
import subprocess
import sys
from pathlib import Path

import entsync

ROOT = Path(__file__).resolve().parents[1]


def test_harness_wraps_resolve():
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(Path(entsync.__file__).resolve().parents[1])!r}, "
        f"{str(ROOT / 'perfbench')!r}]; "
        "import spans, worker; "
        "worker.install_steps(spans.StepClock()); "
        "worker.install_spans(spans.Recorder()); "
        "print('ok')"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
