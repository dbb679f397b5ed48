"""Rerun the repository's mutation checks: each named mutation must fail its tests.

Usage, from the repository root:

    python3 mutants/run.py

Each entry of ``MUTANTS`` names a file, an exact text in it, the text that
replaces it, and the test ids that must fail once it is replaced. The runner
copies the repository to a temporary directory, checks that every listed test
passes on the unchanged copy, then applies one mutation at a time, runs its
tests and restores the file. A mutation whose text does not occur exactly
once stops the run before anything is mutated, so a moved or edited line
fails loudly instead of passing silently.

A mutation survives when any of its listed tests passes. The exit code is 0
when every mutation is killed, 1 when one survives and 2 when the table or
the unchanged copy is unusable. Only the standard library and the test suite's
own dependencies are used; the run takes a minute or two, so it is not part of
the tier-1 suite.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "merge tags the smaller-label arm",
        "src/entsync/timetags.py",
        "keys[ts.size :] |= 1",
        "keys[: ts.size] |= 1",
        ("tests/test_timetags.py::TestTimeTagStream::test_merge_orders_ties_by_channel",),
    ),
    Mutant(
        "merge drops a bit of the time with the tag",
        "src/entsync/timetags.py",
        "keys >>= 1",
        "keys >>= 2",
        (
            "tests/test_timetags.py::TestTimeTagStream::test_merge_orders_ties_by_channel",
            "tests/test_timetags.py::TestTimeTagStream::test_merge_matches_lexsort_reference",
        ),
    ),
    Mutant(
        "stream shape check lets a 0-d input through",
        "src/entsync/timetags.py",
        "if len(shape) != 1 or",
        "if len(shape) > 1 or",
        (
            "tests/test_timetags.py::TestTimeTagStream"
            "::test_rejects_arrays_of_the_wrong_shape[zero_dimensional]",
        ),
    ),
    Mutant(
        "arrival times warn when their running sum overflows",
        "src/entsync/timetags.py",
        'with np.errstate(over="ignore"):',
        'with np.errstate(over="warn"):',
        ("tests/test_timetags.py::TestGeneratePairs::test_streams_always_sorted",),
    ),
    Mutant(
        "detector jitter truncated instead of rounded",
        "src/entsync/timetags.py",
        "dest[:] = np.rint(jitter, out=jitter)",
        "dest[:] = jitter",
        ("tests/test_timetags.py::TestApplyDetector::test_matches_copying_reference",),
    ),
    Mutant(
        "arm jitter adds the two sigmas instead of their quadrature sum",
        "src/entsync/timetags.py",
        "jitter_sigma_ps=math.hypot(source.emission_jitter_sigma_ps, det.jitter_sigma_ps),",
        "jitter_sigma_ps=source.emission_jitter_sigma_ps + det.jitter_sigma_ps,",
        ("tests/test_timetags.py::TestArmDetector::test_one_stage_arm_matches_two_stage_statistics",),
    ),
    Mutant(
        "arm efficiency drops the heralding",
        "src/entsync/timetags.py",
        "efficiency=source.heralding_efficiency * det.efficiency,",
        "efficiency=det.efficiency,",
        ("tests/test_timetags.py::TestArmDetector::test_one_stage_arm_matches_two_stage_statistics",),
    ),
    Mutant(
        "dead-time candidates lose their chunk's offset",
        "src/entsync/timetags.py",
        "+ (gap.start + 1)",
        "+ 1",
        ("tests/test_timetags.py::TestApplyDetector::test_dead_time_filter_matches_event_loop",),
    ),
    Mutant(
        "dead-time filter keeps the first run's last event across runs",
        "src/entsync/timetags.py",
        "        if i - 1 != previous:\n",
        "        if previous < 0:\n",
        ("tests/test_timetags.py::TestApplyDetector::test_dead_time_filter_matches_event_loop",),
    ),
    Mutant(
        "tags CSV takes a label's cell by its value",
        "src/entsync/timetags.py",
        "cells[np.searchsorted(labels, stream.channels[part])]",
        "cells[stream.channels[part] % labels.size]",
        ("tests/test_timetags.py::TestFileFormats::test_csv_bytes_match_row_loop",),
    ),
    Mutant(
        "circular amplitudes enter through the inverse basis change",
        "src/entsync/polarization.py",
        "return cls(_RL_TO_HV @ rl)",
        "return cls(_HV_TO_RL @ rl)",
        ("tests/test_polarization.py::TestJonesState::test_circular_convention",),
    ),
    Mutant(
        "g2 slice of the second record starts after ties",
        "src/entsync/correlation.py",
        "np.searchsorted(bt, [a[0] + params.tau_min_ps, ends[-1]])",
        'np.searchsorted(bt, [a[0] + params.tau_min_ps, ends[-1]], side="right")',
        ("tests/test_correlation.py::TestComputeG2::test_walk_matches_bruteforce_on_edges_and_ties",),
    ),
    Mutant(
        "g2 window starts after ties",
        "src/entsync/correlation.py",
        "j = np.searchsorted(b, a + params.tau_min_ps)",
        'j = np.searchsorted(b, a + params.tau_min_ps, side="right")',
        ("tests/test_correlation.py::TestComputeG2::test_walk_matches_bruteforce_on_edges_and_ties",),
    ),
    Mutant(
        "plateau peak rounds its midpoint up",
        "src/entsync/correlation.py",
        "(idx[turns[peaks] + 1] + idx[turns[peaks + 1]]) // 2",
        "(idx[turns[peaks] + 1] + idx[turns[peaks + 1]] + 1) // 2",
        ("tests/test_correlation.py::TestLocalMaxima::test_matches_find_peaks_above_threshold",),
    ),
    Mutant(
        "cached histogram centre column is writeable",
        "src/entsync/correlation.py",
        "    column.flags.writeable = False\n",
        "",
        ("tests/test_correlation.py::TestExports::test_histogram_centre_column_is_read_only",),
    ),
    Mutant(
        "centroid sigma is the peak width, not the error of its mean",
        "src/entsync/correlation.py",
        "sigma = math.sqrt(max(var, hist.bin_width_ps**2 / 12.0) / wsum)",
        "sigma = math.sqrt(max(var, hist.bin_width_ps**2 / 12.0))",
        ("tests/test_calibration.py::test_offset_z_scores_are_calibrated",),
    ),
    Mutant(
        "channel delay truncated instead of rounded",
        "src/entsync/channel.py",
        "return int(round(self.delay_ps(direction)))",
        "return int(self.delay_ps(direction))",
        (
            "tests/test_calibration.py"
            "::test_one_way_extension_moves_offset_by_half_the_delay_difference",
        ),
    ),
    Mutant(
        "dynamic phase loses its sign below the equator",
        "src/entsync/polarization.py",
        "return p.phase_kn0d_rad + p.rotation_VBd_rad * math.cos(theta_rad)",
        "return p.phase_kn0d_rad + p.rotation_VBd_rad * abs(math.cos(theta_rad))",
        (
            "tests/test_polarization.py::TestPhaseDecomposition"
            "::test_total_matches_traversal_eigenphase",
        ),
    ),
    Mutant(
        "channel delay ignores the configured group index",
        "src/entsync/channel.py",
        "propagation_delay_ps(self.length_m(direction), self.group_index)",
        "propagation_delay_ps(self.length_m(direction), DEFAULT_GROUP_INDEX)",
        ("tests/test_calibration.py::test_estimates_match_the_link_across_configurations",),
    ),
    Mutant(
        "a nested model's error loses its field path",
        "src/entsync/scenario.py",
        'raise ConfigError(f"{prefix}{exc}") from None',
        "raise",
        ("tests/test_cli_fuzz.py::test_every_field_value_is_accepted_or_named",),
    ),
    Mutant(
        "expected counts keep round-off probabilities",
        "src/entsync/tomography.py",
        "np.where(probs < 1e-14, 0.0, probs)",
        "np.clip(probs, 0.0, None)",
        (
            "tests/test_tomography.py::TestAttackInvisibility"
            "::test_full_attack_draws_the_unattacked_tables",
        ),
    ),
    Mutant(
        "per-setting total sums the wrong axes",
        "src/entsync/tomography.py",
        "reshape(3, 2, 3, 2).sum(axis=(1, 3))",
        "reshape(3, 2, 3, 2).sum(axis=(0, 2))",
        ("tests/test_tomography.py::TestNPerSetting::test_matches_group_loop",),
    ),
    Mutant(
        "likelihood gradient keeps clipped settings",
        "src/entsync/tomography.py",
        "np.where(live, n_hat * (1.0 - observed / mu), 0.0)",
        "n_hat * (1.0 - observed / mu)",
        ("tests/test_tomography.py::TestLikelihoodGradient::test_clipped_settings_do_not_contribute",),
    ),
    Mutant(
        "likelihood gradient drops the -Tr(G rho) I term",
        "src/entsync/tomography.py",
        "        g[::5] -= w @ probs",
        "        pass",
        (
            "tests/test_tomography.py::TestLikelihoodGradient"
            "::test_matches_central_differences_with_accidentals",
            "tests/test_tomography.py::TestLikelihoodGradient::test_clipped_settings_do_not_contribute",
        ),
    ),
    Mutant(
        "likelihood gradient flips the sign of its imaginary half",
        "src/entsync/tomography.py",
        "np.concatenate([k.real, k.imag])",
        "np.concatenate([k.real, -k.imag])",
        (
            "tests/test_tomography.py::TestStationarity::test_bundled_counts",
            "tests/test_tomography.py::TestCholeskyReference::test_random_states",
        ),
    ),
    Mutant(
        "likelihood search stops at a 1e-6 relative change",
        "src/entsync/tomography.py",
        '"ftol": 1e-12',
        '"ftol": 1e-6',
        (
            "tests/test_tomography.py::TestStationarity::test_bundled_counts",
            "tests/test_tomography.py::TestCholeskyReference::test_bundled_counts",
        ),
    ),
)


def run_tests(copy: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit code on ``tests`` in ``copy``, and the ids of the cases that failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    }
    return proc.returncode, failed


def survivors(test_ids, failed) -> list[str]:
    """The listed ids none of whose cases (parametrised or not) failed."""
    return [t for t in test_ids if not any(f == t or f.startswith(t + "[") for f in failed)]


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            print(f"refused: {m.name!r}: text occurs {found} times in {m.path}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="entsync-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "results"
            ),
        )
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = run_tests(copy, every_test)
        if code != 0:
            print(f"refused: the unchanged copy fails (pytest exit {code}): {sorted(failed)}",
                  file=sys.stderr)
            return 2

        alive = 0
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                _, failed = run_tests(copy, m.tests)
            finally:
                target.write_text(original)
            passed = survivors(m.tests, failed)
            if passed:
                alive += 1
                print(f"SURVIVED  {m.name}: still passing: {', '.join(passed)}")
            else:
                print(f"killed    {m.name} ({len(m.tests)} of {len(m.tests)} tests fail)")
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutations killed, {alive} survived")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
