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
own dependencies are used; the run takes a few minutes, so it is not part of
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
        "clock scales the whole time in float",
        "src/entsync/timetags.py",
        "out = np.rint(timestamps * (clock.drift_ppb * 1e-9)).astype(np.int64)\n"
        "        out += timestamps\n",
        "out = np.rint(timestamps * (1.0 + clock.drift_ppb * 1e-9)).astype(np.int64)\n",
        (
            "tests/test_timetags.py::TestApplyClock"
            "::test_reading_is_within_1ps_of_the_exact_reading",
        ),
    ),
    Mutant(
        "drift bound widened",
        "src/entsync/timetags.py",
        "if abs(self.drift_ppb) > 1e5:",
        "if abs(self.drift_ppb) > 1e6:",
        ("tests/test_scenario_cli.py::TestConfigValidation::test_field_error_names_path",),
    ),
    Mutant(
        "tag-file error drops the record position",
        "src/entsync/timetags.py",
        'message = f"{exc} in {path}: {where(exc.record)}"',
        'message = f"{exc} in {path}"',
        ("tests/test_cli_fuzz.py::test_broken_tag_file_is_an_io_error_naming_it",),
    ),
    Mutant(
        "CSV tag reader drops cells past the second",
        "src/entsync/timetags.py",
        "record = _CSV_RECORD.fullmatch(line)",
        "record = _CSV_RECORD.match(line)",
        ("tests/test_cli_fuzz.py::test_broken_tag_file_is_an_io_error_naming_it",),
    ),
    Mutant(
        "CSV tag reader takes whatever int() reads as an integer",
        "src/entsync/timetags.py",
        '_CSV_RECORD = re.compile(r"(-?[0-9]+),(-?[0-9]+)")',
        '_CSV_RECORD = re.compile(r"([^,]*),([^,]*)")',
        ("tests/test_cli_fuzz.py::test_csv_cell_outside_the_record_grammar_is_malformed",),
    ),
    Mutant(
        "binary tag reader skips the reserved word",
        "src/entsync/timetags.py",
        "if reserved.size:",
        "if False:",
        ("tests/test_cli_fuzz.py::test_broken_tag_file_is_an_io_error_naming_it",),
    ),
    Mutant(
        "a CSV row takes its value's cell by that value",
        "src/entsync/timetags.py",
        "cells[np.searchsorted(distinct, values[part])]",
        "cells[values[part] % distinct.size]",
        (
            "tests/test_timetags.py::TestFileFormats::test_csv_bytes_match_row_loop",
            "tests/test_correlation.py::TestExports::test_histogram_csv_bytes_match_row_loop",
            "tests/test_tomography.py::TestSerialization::test_counts_csv_roundtrip",
        ),
    ),
    Mutant(
        "decimal cells write the pairs past a number's digits as zeros",
        "src/entsync/timetags.py",
        "            pair += np.uint64(100) * (magnitude == 0)\n",
        "            pass\n",
        (
            "tests/test_timetags.py::TestFileFormats::test_decimal_cells_match_python_formatting",
            "tests/test_timetags.py::TestFileFormats::test_csv_bytes_match_row_loop",
        ),
    ),
    Mutant(
        "decimal cells keep a number's leading zero",
        "src/entsync/timetags.py",
        "        pair += np.uint64(100) * (rest == 0)\n",
        "",
        (
            "tests/test_timetags.py::TestFileFormats::test_decimal_cells_match_python_formatting",
            "tests/test_correlation.py::TestExports::test_histogram_csv_bytes_match_row_loop",
        ),
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
        "    j += b[j] < q\n"
        "    short = np.flatnonzero(b[j] < q)\n"
        "    for _ in range(4):\n"
        "        j[short] += 1\n"
        "        short = short[b[j[short]] < q[short]]\n"
        "    j[short] = np.searchsorted(b, q[short])\n",
        "    j += b[j] <= q\n"
        "    short = np.flatnonzero(b[j] <= q)\n"
        "    for _ in range(4):\n"
        "        j[short] += 1\n"
        "        short = short[b[j[short]] <= q[short]]\n"
        '    j[short] = np.searchsorted(b, q[short], side="right")\n',
        (
            "tests/test_correlation.py::TestComputeG2::test_grid_starts_match_binary_search",
            "tests/test_correlation.py::TestComputeG2::test_walk_matches_bruteforce_on_edges_and_ties",
        ),
    ),
    Mutant(
        "g2 grid step passes an event tied with its window start",
        "src/entsync/correlation.py",
        "j += b[j] < q",
        "j += b[j] <= q",
        (
            "tests/test_correlation.py::TestComputeG2::test_grid_starts_match_binary_search",
            "tests/test_correlation.py::TestComputeG2::test_walk_matches_bruteforce_on_edges_and_ties",
        ),
    ),
    Mutant(
        "g2 grid looks a window start up one cell late",
        "src/entsync/correlation.py",
        "j = first[((q.view(np.uint64) - origin) >> k).view(np.int64)]",
        "j = first[((q.view(np.uint64) - origin) >> k).view(np.int64) + 1]",
        (
            "tests/test_correlation.py::TestComputeG2::test_grid_starts_match_binary_search",
            "tests/test_correlation.py::TestComputeG2::test_walk_matches_bruteforce_on_edges_and_ties",
        ),
    ),
    Mutant(
        "plateau peak rounds its midpoint up",
        "src/entsync/correlation.py",
        "(idx[turns[peaks] + 1] + idx[turns[peaks + 1]]) // 2",
        "(idx[turns[peaks] + 1] + idx[turns[peaks + 1]] + 1) // 2",
        ("tests/test_correlation.py::TestLocalMaxima::test_matches_find_peaks_above_threshold",),
    ),
    Mutant(
        "histogram centre written with .10g",
        "src/entsync/correlation.py",
        '        return decimal_cells(floor, b",", half=bool(half))\n',
        '        centers = (floor + half).tolist()\n'
        '        return np.array([f"{c:.10g}," for c in centers], dtype=np.bytes_)\n',
        ("tests/test_correlation.py::TestExports::test_histogram_centres_are_exact_far_from_zero",),
    ),
    Mutant(
        "bin position at the interval midpoint",
        "src/entsync/correlation.py",
        "        floor, half = _bin_positions(self.tau_min_ps, self.bin_width_ps, bins)\n"
        "        return floor + half\n",
        "        return self.tau_min_ps + (bins + 0.5) * self.bin_width_ps\n",
        (
            "tests/test_correlation.py::TestFindTwoPeaks"
            "::test_centroids_match_the_sample_mean_of_integer_peaks",
            "tests/test_calibration.py::test_swapping_the_records_negates_the_offset",
        ),
    ),
    Mutant(
        "dense count keeps its empty bins",
        "src/entsync/correlation.py",
        "bins = np.flatnonzero(dense)",
        "bins = np.arange(n_bins)",
        ("tests/test_correlation.py::TestComputeG2::test_counting_follows_the_accidental_rate",),
    ),
    Mutant(
        "density rule inverted",
        "src/entsync/correlation.py",
        "if per_bin < duration_ps:",
        "if per_bin >= duration_ps:",
        (
            "tests/test_correlation.py::TestComputeG2::test_counting_follows_the_accidental_rate",
            "tests/test_correlation.py::TestAnalyzeBlock"
            "::test_sparse_block_work_does_not_grow_with_n_bins",
        ),
    ),
    Mutant(
        "block cap takes the larger of its pairs and its bins",
        "src/entsync/correlation.py",
        "per_bin = min(at.size * bt.size * params.bin_width_ps, duration_ps)",
        "per_bin = max(at.size * bt.size * params.bin_width_ps, duration_ps)",
        (
            "tests/test_correlation.py::TestComputeG2::test_cap_boundary_is_exact[sparse]",
            "tests/test_calibration.py"
            "::test_a_window_as_wide_as_the_link_finds_a_long_link_and_a_far_clock",
        ),
    ),
    Mutant(
        "block cap refuses a block at the cap",
        "src/entsync/correlation.py",
        "if per_bin * n_bins > MAX_G2_BINS * duration_ps:",
        "if per_bin * n_bins >= MAX_G2_BINS * duration_ps:",
        ("tests/test_correlation.py::TestComputeG2::test_cap_boundary_is_exact",),
    ),
    Mutant(
        "median of an even count takes the upper middle value",
        "src/entsync/correlation.py",
        "return float(lo) if n % 2 else (float(lo) + float(hi)) / 2",
        "return float(hi)",
        ("tests/test_correlation.py::TestBackgroundStats::test_matches_dense_median_and_mad",),
    ),
    Mutant(
        "empty bins deviate from the median by 0",
        "src/entsync/correlation.py",
        "mad = _median_with(np.abs(hist.counts - med), med, n_empty)",
        "mad = _median_with(np.abs(hist.counts - med), 0, n_empty)",
        ("tests/test_correlation.py::TestBackgroundStats::test_matches_dense_median_and_mad",),
    ),
    Mutant(
        "peak search reads an empty neighbour as the next held bin",
        "src/entsync/correlation.py",
        "x = np.where(hist.bins[pos] == idx, hist.counts[pos], 0)",
        "x = hist.counts[pos]",
        ("tests/test_correlation.py::TestFindTwoPeaks::test_matches_dense_reference",),
    ),
    Mutant(
        "centroid places every bin of the window",
        "src/entsync/correlation.py",
        "tau = hist.bin_centers_ps(np.arange(lo, hi))",
        "tau = hist.bin_centers_ps(np.arange(n))[lo:hi]",
        (
            "tests/test_correlation.py::TestAnalyzeBlock"
            "::test_sparse_block_work_does_not_grow_with_n_bins",
        ),
    ),
    Mutant(
        "centroid mapped to its bin from tau_min_ps in float64 again",
        "src/entsync/correlation.py",
        "nxt = (math.floor(centroid) - hist.tau_min_ps) // hist.bin_width_ps",
        "nxt = int((centroid - hist.tau_min_ps) // hist.bin_width_ps)",
        (
            "tests/test_correlation.py::TestAnalyzeBlock"
            "::test_centroid_is_placed_exactly_past_2_53_ps",
        ),
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
        "ideal span check removed",
        "src/entsync/scenario.py",
        "        if not ends[1] < MAX_TIMESTAMP_PS:\n"
        '            raise ConfigError("duration_s + the longest delay + 64 s must be < 2**62 ps")\n',
        "",
        ("tests/test_cli_fuzz.py::test_ideal_times_past_the_timestamp_range_exit_1",),
    ),
    Mutant(
        "pair rate bound removed",
        "src/entsync/timetags.py",
        "if not 0 <= self.pair_rate_hz <= PS_PER_S:",
        "if not 0 <= self.pair_rate_hz:",
        (
            "tests/test_scenario_cli.py::TestCliErrors::test_values_are_checked_by_their_model"
            "[simulate-fig2a.json-alice_source.pair_rate_hz-1e+300]",
        ),
    ),
    Mutant(
        "dark rate bound removed",
        "src/entsync/timetags.py",
        "if not 0 <= self.dark_rate_hz <= PS_PER_S:",
        "if not 0 <= self.dark_rate_hz:",
        (
            "tests/test_scenario_cli.py::TestCliErrors::test_values_are_checked_by_their_model"
            "[simulate-fig2a.json-detectors.alice_local.dark_rate_hz-1e+300]",
        ),
    ),
    Mutant(
        "summary forgives a block a nanosecond across a segment edge",
        "src/entsync/scenario.py",
        "if lo_ps <= start and end <= hi_ps]",
        "if lo_ps - 1000 <= start and end <= hi_ps]",
        ("tests/test_scenario_cli.py::TestRunScenario::test_blocks_and_segments_share_the_ps_grid",),
    ),
    Mutant(
        "analyze block count reads the second record again",
        "src/entsync/scenario.py",
        "n_blocks = complete_blocks(a_ts, block_ps)",
        "n_blocks = complete_blocks(np.union1d(a_ts, b_ts), block_ps)",
        ("tests/test_scenario_cli.py::TestBlocksCovered::test_late_second_record_adds_no_block",),
    ),
    Mutant(
        "analyze block count goes negative before t = 0",
        "src/entsync/scenario.py",
        "return max(0, (last + tolerance) // block_ps)",
        "return (last + tolerance) // block_ps",
        ("tests/test_scenario_cli.py::TestBlocksCovered::test_record_before_t0_covers_no_block",),
    ),
    Mutant(
        "analyze reads the tags before it checks its block flags",
        "src/entsync/scenario.py",
        "    _check_blocks(_block_ps(block_s), n_blocks or 0, params)\n",
        "",
        ("tests/test_scenario_cli.py::TestCliErrors::test_bad_block_flag_rejected_before_reading",),
    ),
    Mutant(
        "a failed run leaves its private directory",
        "src/entsync/scenario.py",
        "        shutil.rmtree(private)\n",
        "        pass\n",
        ("tests/test_publish.py::test_a_run_that_fails_mid_write_leaves_nothing",),
    ),
    Mutant(
        "a run writes into --out as it finds it",
        "src/entsync/scenario.py",
        '    private = out.parent / f".{out.name}.{secrets.token_hex(8)}"\n'
        "    private.mkdir()\n",
        "    private = out\n"
        "    private.mkdir(exist_ok=True)\n",
        (
            "tests/test_publish.py::test_rerun_into_a_used_directory_exits_3_and_leaves_it",
            "tests/test_publish.py::test_csv_tags_into_a_binary_run_leave_it_alone",
        ),
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
    Mutant(
        "warm start drops its eigenvalue floor",
        "src/entsync/tomography.py",
        "w = np.clip(w, 1e-6, None)",
        "w = np.clip(w, 0.0, None)",
        ("tests/test_tomography.py::TestWarmStart::test_pure_start_on_depolarised_tables",),
    ),
    Mutant(
        "refits start from least squares again",
        "src/entsync/tomography.py",
        "mle_reconstruct(table, start) for",
        "mle_reconstruct(table) for",
        ("tests/test_tomography.py::TestWarmStart::test_refits_skip_the_least_squares_start",),
    ),
    Mutant(
        "summary parse cuts a parametrised id at its first space",
        "mutants/run.py",
        # Escaped, so that the table does not hold the text it replaces.
        "line.split(\" \", 1)[1].split(\" - \", 1)[0]",
        "line.split()[1]",
        ("tests/test_mutants.py::test_failed_ids_keep_spaces_in_parametrised_ids",),
    ),
)


def failed_ids(stdout: str) -> set[str]:
    """The ids that pytest's short summary (``-rfE``) lists as failed or in error.

    A summary line is ``FAILED <id> - <message>``, or ``FAILED <id>`` when the
    message does not fit; a parametrised id may hold spaces.
    """
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def run_tests(copy: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit code on ``tests`` in ``copy``, and the ids of the cases that failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return proc.returncode, failed_ids(proc.stdout)


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
