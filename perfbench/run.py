"""entsync benchmark: one workload, timed through the public CLI, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig3_staged|high_rate|tomo
        [--seed N] [--seconds S] [--trace 0|1]

Each pass runs the workload's two ``entsync.cli.main`` commands in a fresh
single-threaded interpreter (perfbench/worker.py) and checks the outputs
against the physics and against earlier passes of the same code and seed.
Passes repeat until --seconds are used, with at least two. With --trace 0
the end-to-end metrics of BENCHMARK.json are reported as medians over the
passes, the times scaled to a reference core speed (see core_seconds). With
--trace 1 untraced and traced passes alternate and the per-layer metrics
come from the traced ones. Every metric is printed with its unit, the
details (per-pass timings, output digests, spans, run metadata) go to
.perfbench/results/, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--seed is forwarded to ``simulate`` as ``--seed``; without it the bundled
scenario seed is used. ``tomo`` always runs on its bundled seeds (see Tomo).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import LAYERS, PROBE_REF_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench"
C_M_PER_PS = 299792458.0e-12
# A run must end within this many seconds whatever --seconds says.
HARD_LIMIT_S = 165.0
MIN_PASSES = 2
# fig3's offset gates in standard errors. The acceptance tests use 3 on their
# one fixed seed; over arbitrary seeds 3 would flag about one correct seed in
# 200 (the largest of 40 seeds checked was 2.8), so the benchmark uses 4.
GATE_SIGMAS = 4.0


# --- physics oracles, independent of the package ----------------------------


def _delay_ps(ch: dict, direction: str) -> float:
    return (ch["base_length_m"] + ch[f"eve_length_{direction}_m"]) * ch["group_index"] / C_M_PER_PS


def _offset_error_ps(ch: dict) -> float:
    return (_delay_ps(ch, "ab") - _delay_ps(ch, "ba")) / 2.0


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- workloads ----------------------------------------------------------------


class TimingWorkload:
    """``simulate`` a timing config, then ``analyze`` the tags it recorded."""

    labels = ("simulate", "analyze")

    def __init__(self, name: str, config: dict, config_path: Path | None = None):
        self.name = name
        self.config = config
        self.config_path = config_path
        self.n_blocks = int(math.floor(config["duration_s"] / config["block_s"] + 1e-9))

    def prepare(self, work: Path) -> None:
        """Write the config to ``work`` when it is generated, not bundled."""
        if self.config_path is None:
            self.config_path = work / f"{self.name}.json"
            self.config_path.write_text(json.dumps(self.config, indent=2))

    def operations(self) -> int:
        return 2 * self.n_blocks

    def commands(self, out: Path, seed: int | None) -> list:
        sim, ana = out / "simulate", out / "analyze"
        simulate = ["simulate", "--config", str(self.config_path), "--out", str(sim)]
        if seed is not None:
            simulate += ["--seed", str(seed)]
        analyze = [
            "analyze", "--alice", str(sim / "alice.tt"), "--bob", str(sim / "bob.tt"),
            "--out", str(ana), "--block-s", repr(float(self.config["block_s"])),
        ]
        return [["simulate", simulate], ["analyze", analyze]]

    def check(self, out: Path, report: dict) -> list[str]:
        failures = []
        sim_est = (out / "simulate" / "estimates.json").read_bytes()
        ana_est = (out / "analyze" / "estimates.json").read_bytes()
        if sim_est != ana_est:
            failures.append("analyze estimates.json differs from simulate's")
        for label, est in (("simulate", sim_est), ("analyze", ana_est)):
            n = len(json.loads(est))
            if n != self.n_blocks:
                failures.append(f"{label}: {n}/{self.n_blocks} blocks gave an estimate")
        return failures + self.check_physics(out)

    def check_physics(self, out: Path) -> list[str]:
        raise NotImplementedError


class Fig3Staged(TimingWorkload):
    def check_physics(self, out: Path) -> list[str]:
        failures = []
        cfg = self.config
        summary = _read_json(out / "simulate" / "summary.json")
        initial, extended = cfg["channel"], cfg["schedule"][0]["channel"]
        final = cfg["schedule"][-1]["channel"]
        # Criterion 1: the one-way extension shifts the offset by half the delay asymmetry.
        predicted = _offset_error_ps(final) - _offset_error_ps(initial)
        shift, sigma = summary["measured_shift_ps"], summary["shift_sigma_ps"]
        if shift is None or sigma is None or abs(shift - predicted) > GATE_SIGMAS * sigma:
            failures.append(
                f"offset shift {shift} ps, predicted {predicted:.1f} +- {GATE_SIGMAS} x {sigma}"
            )
        # Criterion 2: a symmetric extension moves the round trip, not the offset.
        base, ext = summary["segments"][0], summary["segments"][1]
        rt_expected = (
            _delay_ps(extended, "ab") + _delay_ps(extended, "ba")
            - _delay_ps(initial, "ab") - _delay_ps(initial, "ba")
        )
        rt_change = ext["mean_round_trip_ps"] - base["mean_round_trip_ps"]
        if abs(rt_change - rt_expected) > 50.0:
            failures.append(
                f"round trip moved {rt_change:.1f} ps, expected {rt_expected:.1f} +- 50"
            )
        delta_change = ext["mean_delta_ps"] - base["mean_delta_ps"]
        delta_bound = GATE_SIGMAS * math.hypot(base["sem_delta_ps"], ext["sem_delta_ps"])
        if not abs(delta_change) < delta_bound:
            failures.append(f"symmetric extension moved the offset {delta_change:.2f} ps")
        return failures


class HighRate(TimingWorkload):
    def check_physics(self, out: Path) -> list[str]:
        failures = []
        cfg = self.config
        ch = cfg["channel"]
        delta_expected = (
            cfg["bob_clock"]["offset_ps"] - cfg["alice_clock"]["offset_ps"] + _offset_error_ps(ch)
        )
        rt_expected = _delay_ps(ch, "ab") + _delay_ps(ch, "ba")
        for e in _read_json(out / "simulate" / "estimates.json"):
            tol = 3.0 * e["delta_sigma_ps"] + 1.0
            if abs(e["delta_ps"] - delta_expected) > tol:
                failures.append(
                    f"block {e['block_index']}: offset {e['delta_ps']:.1f} ps, "
                    f"expected {delta_expected:.1f} +- {tol:.2f}"
                )
            if abs(e["round_trip_ps"] - rt_expected) > tol:
                failures.append(
                    f"block {e['block_index']}: round trip {e['round_trip_ps']:.1f} ps, "
                    f"expected {rt_expected:.1f} +- {tol:.2f}"
                )
        return failures


def high_rate_config(fig2c: dict) -> dict:
    """fig2c's asymmetric channel at 100 kHz per source with realistic detectors."""
    source = dict(fig2c["alice_source"], pair_rate_hz=100_000.0)
    detector = {
        "jitter_sigma_ps": 40.0,
        "efficiency": 0.7,
        "dark_rate_hz": 1000.0,
        "dead_time_ps": 25_000,
    }
    return dict(
        fig2c,
        duration_s=80.0,
        block_s=40.0,
        alice_source=source,
        bob_source=source,
        alice_clock={"offset_ps": 0, "drift_ppb": 0.0},
        bob_clock={"offset_ps": 137_000, "drift_ppb": 0.0},
        detectors={k: detector for k in ("alice_local", "alice_remote", "bob_local", "bob_remote")},
        schedule=[],
    )


class Tomo:
    """``tomo`` on the full attack model, then on the naive geometric one.

    The seed is not forwarded. It sets the sampled counts, and the fits'
    work follows them: over seeds 1-10, tomo_full took 50 201 to 80 631
    likelihood evaluations, a spread between quartiles of 29% of the median,
    more than any run-to-run bound the benchmark can set. The bundled seeds
    keep the inputs, and so the work, the same in every run.
    """

    name = "tomo"
    labels = ("tomo_full", "tomo_naive")

    def __init__(self, full: Path, naive: Path):
        self.paths = {"tomo_full": full, "tomo_naive": naive}
        self.reps = {k: int(_read_json(p)["reps"]) for k, p in self.paths.items()}

    def prepare(self, work: Path) -> None:
        pass

    def operations(self) -> int:
        return sum(self.reps.values())

    def commands(self, out: Path, seed: int | None) -> list:
        return [
            [label, ["tomo", "--config", str(path), "--out", str(out / label)]]
            for label, path in self.paths.items()
        ]

    def check(self, out: Path, report: dict) -> list[str]:
        # Criterion 5: the full model is invisible to tomography, the naive one is not.
        failures = []
        full = _read_json(out / "tomo_full" / "summary.json")
        naive = _read_json(out / "tomo_naive" / "summary.json")
        if not full["fidelity_mc_mean"] > 0.99:
            failures.append(f"tomo_full Monte Carlo mean {full['fidelity_mc_mean']} <= 0.99")
        if not naive["fidelity_mc_mean"] < 0.05:
            failures.append(f"tomo_naive Monte Carlo mean {naive['fidelity_mc_mean']} >= 0.05")
        for label, summary in (("tomo_full", full), ("tomo_naive", naive)):
            if summary["n_mc_samples"] != self.reps[label]:
                failures.append(
                    f"{label}: {summary['n_mc_samples']}/{self.reps[label]} Monte Carlo samples"
                )
            if "trace" in report and not report["trace"]["counts"].get(
                f"tomography.nll_evals.{label}"
            ):
                failures.append(f"{label}: the optimizer proxy saw no call")
        return failures


def make_workload(name: str):
    scenarios = ROOT / "scenarios"
    if name == "fig3_staged":
        return Fig3Staged(name, _read_json(scenarios / "fig3.json"), scenarios / "fig3.json")
    if name == "high_rate":
        return HighRate(name, high_rate_config(_read_json(scenarios / "fig2c.json")))
    return Tomo(scenarios / "tomo_full.json", scenarios / "tomo_naive.json")


WORKLOADS = ("fig3_staged", "high_rate", "tomo")


# --- passes ---------------------------------------------------------------------


def _digests(out: Path) -> dict[str, str]:
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        result[path.relative_to(out).as_posix()] = h.hexdigest()
    return result


def code_digest() -> str:
    """sha256 over the package, the bundled scenarios and this benchmark."""
    h = hashlib.sha256()
    for top in ("src", "scenarios", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(path.relative_to(ROOT).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload, seed: int | None, work: Path, hard_stop: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.hard_stop = hard_stop
        self.env = _worker_env()

    def _worker(self, spec: dict) -> dict:
        """Run one fresh interpreter; return its report, or one with an ``error``."""
        spec_path, report_path = self.work / "spec.json", self.work / "report.json"
        spec_path.write_text(json.dumps(spec))
        report_path.unlink(missing_ok=True)
        timeout = max(1.0, self.hard_stop - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec_path), str(report_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker exceeded {timeout:.0f} s and was killed"}
        if proc.returncode != 0 or not report_path.exists():
            return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        return _read_json(report_path)

    def warm_up(self) -> list[str]:
        """One untimed import-only interpreter: fills the bytecode and file caches."""
        report = self._worker({"src": str(ROOT / "src"), "trace": False, "commands": []})
        return [report["error"]] if "error" in report else []

    def run_pass(self, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        report = self._worker({
            "src": str(ROOT / "src"),
            "trace": traced,
            "commands": self.workload.commands(out, self.seed),
        })
        report["traced"] = traced
        failures = [report["error"]] if "error" in report else []
        for cmd in report.get("commands", []):
            if cmd["rc"] != 0:
                failures.append(
                    f"{cmd['label']} exited {cmd['rc']}: {cmd.get('error') or cmd['stderr']}"
                )
        if [c["label"] for c in report.get("commands", [])] != list(self.workload.labels):
            failures.append("not every command ran")
        if not failures:
            try:
                failures += self.workload.check(out, report)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                failures.append(f"outputs unreadable: {exc!r}")
        report["digests"] = _digests(out)
        report["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        report["failures"] = failures
        shutil.rmtree(out, ignore_errors=True)
        return report


# --- metrics --------------------------------------------------------------------


def _end_to_end(p: dict) -> float:
    return p["setup_s"] + sum(c["seconds"] for c in p["commands"])


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer self times (medians over traced passes) and counts (first traced pass).

    ``<span>_s`` is the self time of every span name seen, ``<layer>.self_s`` the
    sum over a layer's spans. Every layer's module import is a span, so each
    layer total is measured on every workload.
    """
    metrics: dict[str, float] = {}
    names = sorted({n for p in traced for n in p["trace"]["self_s"]})
    for name in names:
        metrics[f"{name}_s"] = median([p["trace"]["self_s"].get(name, 0.0) for p in traced])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median([
            sum(v for n, v in p["trace"]["self_s"].items() if n.startswith(layer + "."))
            for p in traced
        ])
    metrics["cli.import_entsync_s"] = median([p["import_entsync_s"] for p in traced])
    t = traced[0]["trace"]
    counts = t["counts"]
    for key in ("timetags.events_written", "timetags.tag_bytes_written",
                "correlation.pairs_binned", "correlation.hist_bytes_written",
                "correlation.blocks", "tomography.mle_fits", "tomography.mc_failed_reps"):
        metrics[key] = counts.get(key, 0)
    metrics["correlation.block_yield"] = (
        counts.get("correlation.estimates", 0) / counts["correlation.blocks"]
        if counts.get("correlation.blocks") else 0.0
    )
    metrics["correlation.g2_peak_alloc_mb"] = t["peak_alloc_mb"].get("correlation.compute_g2", 0.0)
    metrics["tomography.mle_restarts"] = (
        counts.get("tomography.optimizer_calls", 0) - counts.get("tomography.mle_fits", 0)
    )
    for label in Tomo.labels:
        metrics[f"tomography.nll_evals_{label.split('_')[1]}"] = counts.get(
            f"tomography.nll_evals.{label}", 0
        )
    metrics["trace.spans"] = len(t["spans"])
    metrics["trace.overhead_s"] = (
        median([_end_to_end(p) for p in traced]) - median([_end_to_end(p) for p in untraced])
    )
    return metrics


def exact_counts(p: dict) -> dict:
    """Counts of a traced pass that must repeat exactly for one code version and seed."""
    counts = p["trace"]["counts"]
    keys = ("timetags.events_written", "timetags.tag_bytes_written", "correlation.pairs_binned",
            "correlation.hist_bytes_written", "tomography.mle_fits",
            "tomography.nll_evals.tomo_full", "tomography.nll_evals.tomo_naive")
    return {k: counts.get(k, 0) for k in keys}


def check_repeatability(passes: list[dict], canary_path: Path, code: str) -> list[str]:
    """Byte-identical outputs and identical counts across passes and runs of one code and seed."""
    failures = []
    ok = [p for p in passes if not p["failures"]]
    digests = {json.dumps(p["digests"], sort_keys=True) for p in ok}
    if len(digests) > 1:
        failures.append("output digests differ between passes with the same seed")
    counts = [exact_counts(p) for p in ok if p["traced"]]
    if any(c != counts[0] for c in counts[1:]):
        failures.append("exact counts differ between traced passes")
    if not ok:
        return failures
    current = {
        "code_digest": code,
        "digests": ok[0]["digests"],
        "counts": counts[0] if counts else {},
    }
    if canary_path.exists():
        earlier = _read_json(canary_path)
        if earlier["code_digest"] == code:
            if earlier["digests"] != current["digests"]:
                failures.append(f"output digests differ from the earlier run in {canary_path}")
            if earlier["counts"] and current["counts"] and earlier["counts"] != current["counts"]:
                failures.append(f"exact counts differ from the earlier run in {canary_path}")
            current["counts"] = current["counts"] or earlier["counts"]
    canary_path.parent.mkdir(parents=True, exist_ok=True)
    canary_path.write_text(json.dumps(current, indent=1, sort_keys=True))
    return failures


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# --- main -----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="forwarded to simulate as --seed (default: the bundled scenario seed)")
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_passes(runner: Runner, trace: bool, start: float, seconds: float) -> list[dict]:
    """Passes until ``seconds`` are used, at least MIN_PASSES; untraced and traced alternate."""
    passes: list[dict] = []
    while True:
        began = time.monotonic()
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 1))
        took = time.monotonic() - began
        if passes[-1]["failures"] or time.monotonic() + took > runner.hard_stop:
            break
        if len(passes) >= MIN_PASSES and time.monotonic() + took > start + seconds:
            break
    return passes


def core_seconds(command: dict) -> float:
    """A command's time at the reference core speed (spans.PROBE_REF_S).

    The host's cores change speed every fraction of a second, by up to
    half, whatever runs on them. On the reference machine the 15 s means of
    a fixed 23 ms loop spread 17% between quartiles, and identical passes of
    a command differ by up to a third, so wall times alone cannot resolve a
    25% bound. Each step's wall time is scaled by the reference probe time
    over the probes taken just before and after it; the time between steps
    by the command's median probe.
    """
    steps = command["steps"]
    probes = [p for _, _, p in steps]
    total = 0.0
    for k, (_, seconds, before) in enumerate(steps):
        after = probes[k + 1] if k + 1 < len(steps) else before
        total += seconds * PROBE_REF_S / ((before + after) / 2)
    between = command["seconds"] - sum(seconds for _, seconds, _ in steps)
    return total + between * PROBE_REF_S / median(probes)


def end_to_end_metrics(untraced: list[dict], labels) -> dict[str, float]:
    """Medians over the passes; the times at the reference core speed."""
    metrics = {
        "setup_s": median([p["setup_s"] * PROBE_REF_S / p["setup_probe_s"] for p in untraced]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
    }
    for i in range(len(labels)):
        metrics[f"cmd{i + 1}_s"] = median([core_seconds(p["commands"][i]) for p in untraced])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    try:
        if not (ROOT / "src" / "entsync" / "cli.py").is_file():
            raise FileNotFoundError(f"no entsync package under {ROOT / 'src'}")
        bench = _read_json(ROOT / "BENCHMARK.json")
        workload = make_workload(args.workload)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    seed_tag = "default" if args.seed is None else str(args.seed)
    run_tag = f"{args.workload}-seed{seed_tag}-trace{args.trace}"
    work = WORK / run_tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work)
    runner = Runner(workload, args.seed, work, hard_stop=start + HARD_LIMIT_S)
    failures = runner.warm_up()
    passes = run_passes(runner, bool(args.trace), start, args.seconds)
    shutil.rmtree(work, ignore_errors=True)

    code = code_digest()
    failures += [f for p in passes for f in p["failures"]]
    failures += check_repeatability(
        passes, WORK / "canary" / f"{args.workload}-seed{seed_tag}.json", code
    )
    ops = workload.operations()
    attempted = ops * len(passes)
    failed = ops * sum(1 for p in passes if p["failures"])

    untraced = [p for p in passes if not p["traced"] and not p["failures"]]
    traced = [p for p in passes if p["traced"] and not p["failures"]]
    values: dict[str, float] = {}
    if untraced and not args.trace:
        values = end_to_end_metrics(untraced, workload.labels)
    if untraced and traced:
        values = layer_metrics(traced, untraced)
    missing_metrics = [m for m in units if m not in values]
    if missing_metrics and not failures:
        failures.append(f"metrics not measured: {missing_metrics}")
    correct = not failures

    print(f"workload {args.workload}, seed {seed_tag}, trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes")
    for i, label in enumerate(workload.labels):
        if f"cmd{i + 1}_s" in values:
            wall = median([p["commands"][i]["seconds"] for p in untraced])
            print(f"  {label}_s = {values[f'cmd{i + 1}_s']:.4f} s (cmd{i + 1}_s, median of "
                  f"{len(untraced)} at the reference core speed; wall time {wall:.4f} s)")
    for name, unit in units.items():
        if name in values:
            print(f"  {name} = {values[name]:.6g} {unit}")
    for name in sorted(set(values) - set(units)):
        print(f"  detail: {name} = {values[name]:.6g} s")
    print(f"  failed_share = {failed}/{attempted} operations")
    if "trace.overhead_s" in values:
        layer_sum = median([sum(p["trace"]["self_s"].values()) for p in traced])
        untraced_s = median([_end_to_end(p) for p in untraced])
        print(f"  layer self times sum to {layer_sum:.4f} s; untraced end-to-end "
              f"{untraced_s:.4f} s; difference {layer_sum - untraced_s:.4f} s "
              f"(tracing overhead {values['trace.overhead_s']:.4f} s)")
    for f in failures:
        print(f"  FAILED: {f}")

    first = (untraced + traced or [{}])[0]
    metadata = {
        **first.get("versions", {}),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "code_digest": code,
        "output_bytes": first.get("output_bytes"),
        "trace_overhead_s": values.get("trace.overhead_s"),
    }
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metadata": metadata,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": values,
        "digests": first.get("digests", {}),
        "passes": [
            {k: v for k, v in p.items() if k not in ("digests", "trace")}
            | {"self_s": p.get("trace", {}).get("self_s"),
               "counts": p.get("trace", {}).get("counts")}
            for p in passes
        ],
        "spans": traced[-1]["trace"]["spans"] if traced else [],
    }
    results_path = WORK / "results" / f"{run_tag}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=1))
    print(f"  metadata: {json.dumps(metadata)}")
    print(f"  details: {results_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
