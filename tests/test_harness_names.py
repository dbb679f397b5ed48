"""The benchmark harness finds every entsync name it wraps.

``perfbench/worker.py`` replaces functions by name where their callers look
them up. A rename that misses the harness would fail every benchmark pass,
so this test installs both of its wrappers in a fresh interpreter.
"""
import json
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


def test_harness_wraps_are_called(tmp_path):
    # A call site that moves leaves its old name resolvable but unmeasured, so
    # every wrapped name must also be called by a short simulate, analyze and tomo.
    smoke = json.loads((ROOT / "scenarios" / "smoke.json").read_text())
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({**smoke, "duration_s": 2.0, "block_s": 1.0}))
    tomo = tmp_path / "tomo.json"
    tomo.write_text(
        json.dumps({"seed": 42, "attack": "full", "counts_per_setting": 2000.0, "reps": 4})
    )
    out = tmp_path / "out"
    commands = [
        ["simulate", "--config", str(timing), "--out", str(out / "sim")],
        ["analyze", "--alice", str(out / "sim" / "alice.tt"), "--bob", str(out / "sim" / "bob.tt"),
         "--out", str(out / "ana"), "--block-s", "1"],
        ["tomo", "--config", str(tomo), "--out", str(out / "tomo")],
    ]
    code = f"""
import json, sys
sys.path[:0] = [{str(Path(entsync.__file__).resolve().parents[1])!r}, {str(ROOT / 'perfbench')!r}]
import spans, worker
from entsync import cli

calls = {{}}

def tallied(base):
    class Tallied(base):
        def wrap(self, module, attr, *args, **kwargs):
            super().wrap(module, attr, *args, **kwargs)
            key = f"{{base.__name__}}: {{module.__name__}}.{{attr}}"
            calls[key] = 0
            inner = getattr(module, attr)

            def counted(*a, **k):
                calls[key] += 1
                return inner(*a, **k)

            setattr(module, attr, counted)
    return Tallied

worker.install_steps(tallied(spans.StepClock)())
rec = tallied(spans.Recorder)()
worker.install_spans(rec)
for argv in {commands!r}:
    if cli.main(argv) != 0:
        sys.exit(f"{{argv[0]}} failed")
calls["OptimizeProxy: tomography.optimize.minimize"] = rec.counts["tomography.optimizer_calls"]
print(json.dumps(calls))
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    calls = json.loads(result.stdout.splitlines()[-1])
    assert {name.split(":")[0] for name in calls} == {"StepClock", "Recorder", "OptimizeProxy"}
    assert [name for name, n in calls.items() if n == 0] == []
