"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json REPORT.json

SPEC names the checkout's ``src`` directory, the CLI argument lists to pass
to ``entsync.cli.main`` one after another, and whether to trace. The pass
times the imports, then each command, and writes REPORT.json with the
timings, the exit codes, the process's peak RSS and, when traced, the spans
and the counts taken at the layer boundaries. An untraced pass times each
call into the layers' leaf functions instead (see ``STEPS``).
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, Recorder, StepClock, probe

# Imported one by one, dependencies first, so that each layer's own import
# time is its own. The package itself and its helpers count as the cli layer.
ENTSYNC_MODULES = (
    "entsync", "entsync.errors", "entsync.rng", "entsync.timetags", "entsync.channel",
    "entsync.correlation", "entsync.polarization", "entsync.tomography", "entsync.scenario",
    "entsync.cli",
)


class OptimizeProxy:
    """Stands in for ``entsync.tomography.optimize`` to count likelihood evaluations."""

    def __init__(self, real, rec: Recorder):
        self._real = real
        self._rec = rec
        self.command = None

    def __getattr__(self, name):
        return getattr(self._real, name)

    def minimize(self, *args, **kwargs):
        result = self._real.minimize(*args, **kwargs)
        self._rec.counts["tomography.optimizer_calls"] += 1
        self._rec.counts[f"tomography.nll_evals.{self.command}"] += int(result.nfev)
        return result


# The leaf calls an untraced pass times, by the module where their callers look
# them up. None of them calls another, and together they are nearly all of
# every command's time: the tag pipeline and file I/O, each analysis block and
# histogram dump, and each Monte Carlo rep's sampling, fits and fidelity.
STEPS = {
    "scenario": (
        "generate_pairs", "apply_detector", "merge_streams", "apply_clock",
        "write_tags_binary", "read_tags", "analyze_block", "write_histogram_csv",
        "sample_counts", "mle_reconstruct", "fidelity",
    ),
    "tomography": ("sample_counts", "mle_reconstruct", "fidelity"),
}


def install_steps(clock: StepClock) -> None:
    for module_name, attrs in STEPS.items():
        module = importlib.import_module(f"entsync.{module_name}")
        for attr in attrs:
            clock.wrap(module, attr, attr)


def install_spans(rec: Recorder) -> OptimizeProxy:
    """Wrap the public entry points of every layer where their callers look them up."""
    import entsync.cli as cli
    import entsync.correlation as correlation
    import entsync.scenario as scenario
    import entsync.tomography as tomography

    counts = rec.counts

    def tags_written(_, stream, path):
        counts["timetags.events_written"] += len(stream)
        counts["timetags.tag_bytes_written"] += os.path.getsize(path)

    def pairs_binned(hist, *_, **__):
        counts["correlation.pairs_binned"] += int(hist.counts.sum())

    def block_done(result, *_):
        counts["correlation.blocks"] += 1
        counts["correlation.estimates"] += result[1] is not None

    def hist_written(_, hist, path):
        counts["correlation.hist_bytes_written"] += os.path.getsize(path)

    def fit_done(*_, **__):
        counts["tomography.mle_fits"] += 1

    def mc_done(distribution, counts_before, counts_after, reps, *_, **__):
        counts["tomography.mc_failed_reps"] += int(reps) - int(distribution.samples.size)

    for attr in ("run_scenario", "analyze_files", "run_tomo_scenario"):
        rec.wrap(cli, attr, f"scenario.{attr}")
    rec.wrap(scenario, "load_timing_scenario", "scenario.load_config")
    rec.wrap(scenario, "load_tomo_scenario", "scenario.load_config")
    # The channel has no public call on the simulate path: what simulate_timing
    # spends outside its timetags children is the per-direction delay schedule.
    rec.wrap(scenario, "simulate_timing", "channel.delay")
    for attr in ("generate_pairs", "apply_detector", "merge_streams", "apply_clock"):
        rec.wrap(scenario, attr, f"timetags.{attr}")
    rec.wrap(scenario, "write_tags_binary", "timetags.write_tags", after=tags_written)
    rec.wrap(scenario, "read_tags", "timetags.read_tags")
    rec.wrap(scenario, "analyze_block", "correlation.analyze_block", after=block_done)
    rec.wrap(
        correlation, "compute_g2", "correlation.compute_g2", after=pairs_binned, track_alloc=True
    )
    rec.wrap(correlation, "find_two_peaks", "correlation.find_two_peaks")
    rec.wrap(scenario, "write_histogram_csv", "correlation.write_histogram_csv", after=hist_written)
    rec.wrap(scenario, "attacked_state", "polarization.attack_state")
    rec.wrap(scenario, "monte_carlo_fidelity", "tomography.monte_carlo_fidelity", after=mc_done)
    for module in (scenario, tomography):
        rec.wrap(module, "sample_counts", "tomography.sample_counts")
        rec.wrap(module, "mle_reconstruct", "tomography.mle_reconstruct", after=fit_done)
        rec.wrap(module, "fidelity", "tomography.fidelity")
    proxy = OptimizeProxy(tomography.optimize, rec)
    tomography.optimize = proxy
    return proxy


def run_pass(spec: dict) -> dict:
    rec = Recorder() if spec["trace"] else None
    probe_before = probe()
    t0 = time.perf_counter()
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401  (imported by entsync.correlation and .tomography)
    import scipy.signal  # noqa: F401

    t1 = time.perf_counter()
    imports = []
    for name in ENTSYNC_MODULES:
        start = time.perf_counter()
        importlib.import_module(name)
        imports.append((name, start, time.perf_counter()))
    t2 = time.perf_counter()
    probe_after = probe()
    import entsync
    import entsync.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(entsync.__file__).resolve().parents:
        raise RuntimeError(f"entsync was imported from {entsync.__file__}, not from {src}")

    report = {
        "setup_s": t2 - t0,
        "import_deps_s": t1 - t0,
        "import_entsync_s": t2 - t1,
        "setup_probe_s": (probe_before + probe_after) / 2,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "entsync": entsync.__version__,
        },
        "commands": [],
    }
    proxy = clock = None
    if rec is not None:
        rec.add_span("cli.import_deps", t0, t1)
        for name, start, end in imports:
            layer = name.rsplit(".", 1)[-1]
            rec.add_span(f"{layer if layer in LAYERS else 'cli'}.import", start, end)
        proxy = install_spans(rec)
    else:
        clock = StepClock()
        install_steps(clock)

    for label, argv in spec["commands"]:
        entry = {"label": label, "argv": argv, "rc": None}
        report["commands"].append(entry)
        if proxy is not None:
            proxy.command = label
        first_step = len(clock.steps) if clock is not None else 0
        out, err = io.StringIO(), io.StringIO()
        span = rec.span("cli.main") if rec is not None else contextlib.nullcontext()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                entry["rc"] = entsync.cli.main(argv)
        except Exception:  # a crashing command fails the pass; the report says why
            entry["error"] = traceback.format_exc()
        entry["seconds"] = time.perf_counter() - start
        entry["cpu_seconds"] = time.process_time() - cpu_start
        entry["stdout"], entry["stderr"] = out.getvalue(), err.getvalue()
        if clock is not None:
            entry["steps"] = clock.steps[first_step:]
            # The probes ran inside the command; its times are without them.
            probes_s = sum(p for _, _, p in entry["steps"])
            entry["seconds"] -= probes_s
            entry["cpu_seconds"] -= probes_s
        if entry["rc"] != 0:
            break

    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        report["trace"] = {
            "self_s": rec.self_times(),
            "counts": dict(rec.counts),
            "peak_alloc_mb": rec.peaks,
            "spans": [
                {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in rec.spans
            ],
        }
    return report


def main() -> int:
    # One core for the whole pass, so that each probe times the core its step runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads(Path(sys.argv[1]).read_text())
    report = run_pass(spec)
    Path(sys.argv[2]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
