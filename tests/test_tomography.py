import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from entsync import tomography
from entsync.errors import ConfigError, ReconstructionError
from entsync.polarization import bell_psi_minus
from entsync.scenario import run_tomo_scenario
from entsync.tomography import (
    PROJECTOR_LABELS,
    CountsTable,
    DensityMatrix,
    FidelityDistribution,
    depolarize,
    expected_counts,
    fidelity,
    mle_reconstruct,
    monte_carlo_fidelity,
    sample_counts,
    setting_labels,
    write_counts_csv,
)
from entsync.tomography import (
    _PROJECTOR_VECTORS,
    _SETTING_OPS,
    _estimate_n_per_setting,
    _factor_params,
    _nll_and_gradient,
    _rho_from_params,
)

from oracles import (
    mle_reconstruct_cholesky_reference,
    mle_reconstruct_fd_reference,
    n_per_setting_reference,
    poisson_nll,
    random_density_matrix,
    random_pure_state,
)

SINGLET = DensityMatrix.from_pure(bell_psi_minus().amplitudes)
MIXED = DensityMatrix(np.eye(4) / 4.0)


def table_for(rho: DensityMatrix, n: float, accidentals: float = 0.0) -> CountsTable:
    exact = expected_counts(rho, n, accidentals)
    return CountsTable(np.rint(exact).astype(np.int64), accidental_rate_per_setting=accidentals)


class TestProjectors:
    def test_h_is_first_basis_vector(self):
        assert np.allclose(_PROJECTOR_VECTORS["H"], [1.0, 0.0])

    def test_diagonal_pair_orthogonal(self):
        assert abs(np.vdot(_PROJECTOR_VECTORS["D"], _PROJECTOR_VECTORS["A"])) < 1e-12

    @pytest.mark.parametrize("pair", [("H", "V"), ("D", "A"), ("L", "R")])
    def test_basis_pairs_resolve_identity(self, pair):
        total = np.zeros((2, 2), dtype=complex)
        for label in pair:
            v = _PROJECTOR_VECTORS[label]
            total += np.outer(v, v.conj())
        assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_setting_order_is_alice_major(self):
        labels = setting_labels()
        assert len(labels) == 36
        assert labels[0] == ("H", "H")
        assert labels[5] == ("H", "R")
        assert labels[6] == ("V", "H")


class TestExpectedCounts:
    def test_singlet_anticorrelation(self):
        exp = expected_counts(SINGLET, 1000.0, accidentals=2.0)
        idx_hh = setting_labels().index(("H", "H"))
        idx_hv = setting_labels().index(("H", "V"))
        assert exp[idx_hh] == pytest.approx(2.0, abs=1e-9)
        assert exp[idx_hv] == pytest.approx(502.0, abs=1e-9)

    def test_maximally_mixed_uniform(self):
        exp = expected_counts(MIXED, 1000.0)
        assert np.allclose(exp, 250.0, atol=1e-9)


class TestSampleCounts:
    def test_zero_means_all_zero(self):
        table = sample_counts(np.zeros(36), 0)
        assert table.counts.sum() == 0

    def test_poisson_concentration(self):
        table = sample_counts(np.full(36, 1e4), 1)
        assert np.all(np.abs(table.counts - 1e4) < 500)  # 5 sigma

    def test_deterministic_per_seed(self):
        means = np.linspace(10, 1000, 36)
        one = sample_counts(means, 9)
        two = sample_counts(means, 9)
        other = sample_counts(means, 10)
        assert np.array_equal(one.counts, two.counts)
        assert not np.array_equal(one.counts, other.counts)

    def test_resampling_uses_observed_counts_as_means(self):
        observed = table_for(SINGLET, 1e5)
        resampled = sample_counts(observed.counts.astype(np.float64), 2)
        nonzero = observed.counts > 1000
        relative = np.abs(resampled.counts[nonzero] - observed.counts[nonzero]) / np.sqrt(
            observed.counts[nonzero]
        )
        assert relative.max() < 5.0
        zero = observed.counts == 0
        assert np.all(resampled.counts[zero] == 0)


class TestMLE:
    def test_exact_singlet_counts_recovered(self):
        rho_hat = mle_reconstruct(table_for(SINGLET, 1e6))
        assert fidelity(rho_hat, SINGLET) > 0.999

    def test_maximally_mixed_recovered(self):
        rho_hat = mle_reconstruct(table_for(MIXED, 1e6))
        eigen = np.linalg.eigvalsh(rho_hat.matrix)
        assert np.all(np.abs(eigen - 0.25) < 0.02)

    def test_all_equal_counts_give_maximally_mixed(self):
        rho_hat = mle_reconstruct(CountsTable(np.full(36, 5000, dtype=np.int64)))
        assert fidelity(rho_hat, MIXED) > 0.999

    def test_zero_counts_rejected(self):
        with pytest.raises(ReconstructionError):
            mle_reconstruct(CountsTable(np.zeros(36, dtype=np.int64)))

    def test_evaluation_cap_ends_the_search(self, monkeypatch):
        monkeypatch.setattr(tomography, "_EVAL_LIMIT", 1)
        with pytest.raises(ReconstructionError, match="did not converge"):
            mle_reconstruct(table_for(SINGLET, 1e4))

    def test_accidentals_are_subtracted(self):
        accidentals = 500.0
        table = table_for(SINGLET, 1e5, accidentals=accidentals)
        rho_hat = mle_reconstruct(table)
        assert fidelity(rho_hat, SINGLET) > 0.999

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_consistency_random_states(self, seed):
        rng = np.random.default_rng(seed)
        pure = DensityMatrix.from_pure(random_pure_state(rng))
        mixed = DensityMatrix(random_density_matrix(rng))
        for rho in (pure, mixed):
            rho_hat = mle_reconstruct(table_for(rho, 1e6))
            assert fidelity(rho_hat, rho) > 0.999

    def test_output_satisfies_invariants_on_noise(self):
        rng = np.random.default_rng(13)
        table = CountsTable(rng.integers(0, 50, size=36).astype(np.int64))
        rho_hat = mle_reconstruct(table)  # validated on construction
        assert isinstance(rho_hat, DensityMatrix)


def central_differences(objective, t: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.empty(t.size)
    for i in range(t.size):
        step = np.zeros(t.size)
        step[i] = h
        grad[i] = (objective(t + step)[0] - objective(t - step)[0]) / (2.0 * h)
    return grad


def gradient_error(table: CountsTable, t: np.ndarray) -> float:
    """Largest gap between the analytic gradient and central differences,
    relative to the largest gradient component."""
    objective = _nll_and_gradient(table)
    _, grad = objective(t)
    reference = central_differences(objective, t)
    return float(np.abs(grad - reference).max() / np.abs(reference).max())


class TestNPerSetting:
    @pytest.mark.parametrize("accidentals", [0.0, 20.0, 1e6])
    def test_matches_group_loop(self, accidentals):
        rng = np.random.default_rng(5)
        for _ in range(20):
            table = CountsTable(rng.integers(0, 10**6, 36), accidentals)
            assert _estimate_n_per_setting(table) == n_per_setting_reference(table)


class TestLikelihoodGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_central_differences_at_random_parameters(self, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_density_matrix(rng, rank=int(rng.integers(1, 5))))
        table = sample_counts(expected_counts(rho, 1e4), seed)
        assert gradient_error(table, rng.normal(size=32)) < 1e-6

    def test_matches_central_differences_with_accidentals(self):
        rng = np.random.default_rng(5)
        acc = 30.0
        table = sample_counts(
            expected_counts(depolarize(SINGLET, 0.2), 1e4, acc), 5, accidental_rate_per_setting=acc
        )
        assert gradient_error(table, rng.normal(size=32)) < 1e-6

    def test_clipped_settings_do_not_contribute(self):
        # Only the last row of the factor is nonzero, so rho is pure, with
        # amplitude 1e-6 / |v| ~ 8e-8 on |VV>: every setting that projects the
        # first photon onto V has a mean count below the 1e-10 floor, also one
        # step h away, so the likelihood is flat in those settings although
        # their probabilities move with the last row.
        table = CountsTable(np.random.default_rng(7).integers(5, 20, size=36))
        A = np.zeros((4, 4), dtype=np.complex128)
        A[3, 3] = 1e-6
        A[3, 0] = 8.0 + 4.0j
        A[3, 1] = 6.0 - 5.0j
        t = np.concatenate([A.real.reshape(16), A.imag.reshape(16)])
        mu = expected_counts(DensityMatrix(_rho_from_params(t)), _estimate_n_per_setting(table))
        clipped = [setting_labels()[s] for s in np.flatnonzero(mu < 1e-10)]
        assert clipped == [("V", b) for b in PROJECTOR_LABELS]
        assert gradient_error(table, t) < 1e-6


class TestFidelity:
    def test_self_fidelity(self):
        assert fidelity(SINGLET, SINGLET) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        hh = DensityMatrix.from_pure(np.array([1.0, 0.0, 0.0, 0.0]))
        vv = DensityMatrix.from_pure(np.array([0.0, 0.0, 0.0, 1.0]))
        assert fidelity(hh, vv) == pytest.approx(0.0, abs=1e-10)

    def test_pure_versus_maximally_mixed(self):
        assert fidelity(SINGLET, MIXED) == pytest.approx(0.25, abs=1e-10)

    def test_symmetry_and_bounds_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = DensityMatrix(random_density_matrix(rng))
            b = DensityMatrix(random_density_matrix(rng, rank=rng.integers(1, 5)))
            f_ab = fidelity(a, b)
            f_ba = fidelity(b, a)
            assert abs(f_ab - f_ba) < 1e-9
            assert -1e-12 <= f_ab <= 1.0 + 1e-10

    def test_invalid_matrix_rejected(self):
        # fidelity takes DensityMatrix only, which checks its matrix when built.
        with pytest.raises(ConfigError, match="trace differs from 1"):
            DensityMatrix(np.eye(4))  # trace 4
        bad_herm = np.eye(4, dtype=complex) / 4.0
        bad_herm[0, 1] = 0.1j
        with pytest.raises(ConfigError, match="not Hermitian"):
            DensityMatrix(bad_herm)

    def test_density_matrix_validation(self):
        with pytest.raises(ConfigError):
            DensityMatrix(np.diag([0.7, 0.5, -0.1, -0.1]))

    def test_density_matrix_keeps_its_checked_copy(self):
        source = np.eye(4, dtype=np.complex128) / 4.0
        rho = DensityMatrix(source)
        source[0, 0] = 5.0
        assert rho.matrix[0, 0] == 0.25

    def test_counts_table_rejects_negative_counts(self):
        counts = np.full(36, 5, dtype=np.int64)
        counts[7] = -1
        with pytest.raises(ConfigError, match="counts must be non-negative"):
            CountsTable(counts)

    def test_counts_table_rejects_negative_accidental_rate(self):
        with pytest.raises(ConfigError, match="accidental_rate_per_setting must be >= 0"):
            CountsTable(np.full(36, 5, dtype=np.int64), accidental_rate_per_setting=-0.5)

    def test_counts_table_keeps_its_checked_copy(self):
        source = np.full(36, 5, dtype=np.int64)
        table = CountsTable(source)
        source[0] = -7
        assert table.counts[0] == 5


class TestMonteCarlo:
    def test_noise_floor_near_unity(self):
        table = table_for(SINGLET, 1e6)
        rho_hat = mle_reconstruct(table)
        dist = monte_carlo_fidelity(
            table, table, reps=20, seed=4, rho_before=rho_hat, rho_after=rho_hat
        )
        assert dist.mean > 0.995
        assert dist.ci95_low <= dist.mean <= dist.ci95_high
        assert dist.samples.size == 20

    def test_ci_width_shrinks_with_counts(self):
        slim = depolarize(SINGLET, 0.1)
        wide_dist = monte_carlo_fidelity(
            table_for(slim, 1e4), table_for(SINGLET, 1e4), reps=15, seed=8,
            rho_before=mle_reconstruct(table_for(slim, 1e4)),
            rho_after=mle_reconstruct(table_for(SINGLET, 1e4)),
        )
        narrow_dist = monte_carlo_fidelity(
            table_for(slim, 1e6), table_for(SINGLET, 1e6), reps=15, seed=8,
            rho_before=mle_reconstruct(table_for(slim, 1e6)),
            rho_after=mle_reconstruct(table_for(SINGLET, 1e6)),
        )
        wide = wide_dist.ci95_high - wide_dist.ci95_low
        narrow = narrow_dist.ci95_high - narrow_dist.ci95_low
        assert narrow < wide

    def test_deterministic_per_seed(self):
        table = table_for(SINGLET, 1e4)
        rho_hat = mle_reconstruct(table)
        one = monte_carlo_fidelity(
            table, table, reps=5, seed=6, rho_before=rho_hat, rho_after=rho_hat
        )
        two = monte_carlo_fidelity(
            table, table, reps=5, seed=6, rho_before=rho_hat, rho_after=rho_hat
        )
        assert np.array_equal(one.samples, two.samples)

    def test_all_failures_abort(self):
        empty = CountsTable(np.zeros(36, dtype=np.int64))
        with pytest.raises(ReconstructionError):
            monte_carlo_fidelity(empty, empty, reps=5, seed=0, rho_before=MIXED, rho_after=MIXED)

    def test_distribution_json_schema(self):
        dist = FidelityDistribution.from_samples(np.array([0.5, 0.7, 0.9]))
        payload = dist.to_json()
        assert set(payload) == {"samples", "mean", "ci95_low", "ci95_high"}
        assert payload["mean"] == pytest.approx(0.7)


def tomo_run_files(config: dict) -> dict:
    """The files of a tomo run, by name; summary.json parsed."""
    with tempfile.TemporaryDirectory(prefix="tomo-") as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        run_tomo_scenario(path, Path(tmp) / "out")
        files = {p.name: p.read_bytes() for p in (Path(tmp) / "out").iterdir()}
    files["summary.json"] = json.loads(files["summary.json"])
    return files


class TestAttackInvisibility:
    @given(
        wavelength_nm=st.floats(400.0, 1600.0),
        n0=st.floats(1.1, 2.5),
        length_d_m=st.floats(1e-4, 0.1),
        depolarization=st.floats(0.0, 0.5),
        accidentals=st.floats(0.0, 100.0),
        counts=st.floats(1e3, 1e6),
        seed=st.integers(0, 2**31),
        theta_rad=st.floats(0.5, 1.2),
    )
    # Each example runs three tomo scenarios, so a failing one is reported unshrunk.
    @settings(
        max_examples=10, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate]
    )
    def test_full_attack_draws_the_unattacked_tables(
        self, wavelength_nm, n0, length_d_m, depolarization, accidentals, counts, seed, theta_rad
    ):
        # At the half turn the circulators multiply the state by a global phase,
        # so every drawn table and fit equals the no-attack run's.
        faraday = {
            "wavelength_nm": wavelength_nm,
            "n0": n0,
            "length_d_m": length_d_m,
            "rotation_VBd_rad": -math.pi,
        }
        config = {
            "seed": seed,
            "faraday": faraday,
            "depolarization": depolarization,
            "accidentals_per_setting": accidentals,
            "counts_per_setting": counts,
            "reps": 2,
        }
        none = tomo_run_files(dict(config, attack="none"))
        full = tomo_run_files(dict(config, attack="full"))
        none_config, full_config = (run["summary.json"].pop("config") for run in (none, full))
        assert full == none
        assert dict(full_config, attack="none") == none_config
        # The naive geometric model at 0.5-1.2 rad keeps at most 0.86 of the singlet.
        naive = tomo_run_files(dict(config, attack="naive", theta_rad=theta_rad))
        assert naive["counts_before.csv"] == none["counts_before.csv"]
        assert naive["counts_after.csv"] != none["counts_after.csv"]


@pytest.fixture(scope="module")
def bundled_counts(scenario_dir, tmp_path_factory):
    """The before/after counts of the bundled tomo_full and tomo_naive runs."""
    tables = {}
    for name in ("tomo_full", "tomo_naive"):
        config = json.loads((scenario_dir / f"{name}.json").read_text())
        config["reps"] = 2  # the counts do not depend on the Monte Carlo
        path = tmp_path_factory.mktemp(name) / "config.json"
        path.write_text(json.dumps(config))
        run_tomo_scenario(path, path.parent / "out")
        for which in ("before", "after"):
            # The bundled configs have no accidentals, so a table is its counts column.
            counts_csv = path.parent / "out" / f"counts_{which}.csv"
            counts = np.loadtxt(counts_csv, delimiter=",", skiprows=1, usecols=2, dtype=np.int64)
            tables[f"{name}_{which}"] = CountsTable(counts)
    return tables


class TestFiniteDifferenceReference:
    @pytest.mark.parametrize(
        "name", ["tomo_full_before", "tomo_full_after", "tomo_naive_before", "tomo_naive_after"]
    )
    def test_bundled_counts(self, bundled_counts, name):
        self.assert_matches_reference(bundled_counts[name])

    def test_depolarised_with_accidentals(self):
        acc = 20.0
        table = sample_counts(
            expected_counts(depolarize(SINGLET, 0.1), 1e4, acc), 17, accidental_rate_per_setting=acc
        )
        self.assert_matches_reference(table)

    @staticmethod
    def assert_matches_reference(table: CountsTable):
        fit = mle_reconstruct(table)
        reference = mle_reconstruct_fd_reference(table)
        nll_fit = poisson_nll(fit, table)
        nll_reference = poisson_nll(reference, table)
        assert nll_fit <= nll_reference + 1e-9 * abs(nll_reference)
        assert np.abs(fit.matrix - reference.matrix).max() < 1e-5


def sparse_table(seed: int) -> CountsTable:
    """One to three nonzero settings: the per-setting total is floored at 1 and
    the fit drives several settings' mean counts below the 1e-10 floor."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(36, dtype=np.int64)
    counts[rng.choice(36, size=int(rng.integers(1, 4)), replace=False)] = rng.integers(1, 5)
    return CountsTable(counts)


def assert_at_least_cholesky_likelihood(table: CountsTable):
    nll = poisson_nll(mle_reconstruct(table), table)
    nll_cholesky = poisson_nll(mle_reconstruct_cholesky_reference(table), table)
    assert nll <= nll_cholesky + 1e-9 * abs(nll_cholesky)


class TestCholeskyReference:
    """The full complex factor reaches at least the likelihood of the
    lower-triangular factor of James et al."""

    @pytest.mark.parametrize(
        "name", ["tomo_full_before", "tomo_full_after", "tomo_naive_before", "tomo_naive_after"]
    )
    def test_bundled_counts(self, bundled_counts, name):
        assert_at_least_cholesky_likelihood(bundled_counts[name])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_density_matrix(rng, rank=int(rng.integers(1, 5))))
        assert_at_least_cholesky_likelihood(sample_counts(expected_counts(rho, 1e4), seed))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_states_with_accidentals(self, seed):
        rng = np.random.default_rng(seed)
        acc = float(rng.uniform(5.0, 100.0))
        rho = DensityMatrix(random_density_matrix(rng, rank=int(rng.integers(1, 5))))
        table = sample_counts(expected_counts(rho, 1e4, acc), seed, accidental_rate_per_setting=acc)
        assert_at_least_cholesky_likelihood(table)

    @pytest.mark.parametrize("seed", [8, 11, 12])
    def test_settings_at_the_mean_count_floor(self, seed):
        table = sparse_table(seed)
        mu = expected_counts(mle_reconstruct(table), _estimate_n_per_setting(table))
        assert np.count_nonzero(mu < 1e-10) > 0
        assert_at_least_cholesky_likelihood(table)


def assert_warm_fit_reaches_cold_likelihood(table: CountsTable, start: np.ndarray):
    nll_warm = poisson_nll(mle_reconstruct(table, start), table)
    nll_cold = poisson_nll(mle_reconstruct(table), table)
    assert nll_warm <= nll_cold + 1e-9 * abs(nll_cold)


class TestWarmStart:
    """Monte Carlo refits start at the point estimate, and reach the likelihood
    of a fit from the least-squares start."""

    @pytest.mark.parametrize("name", ["tomo_full", "tomo_naive"])
    def test_bundled_refits(self, bundled_counts, scenario_dir, monkeypatch, name):
        seed = json.loads((scenario_dir / f"{name}.json").read_text())["seed"]
        before, after = (bundled_counts[f"{name}_{which}"] for which in ("before", "after"))
        fit = tomography.mle_reconstruct
        refits = []

        def recorded(table, start):
            refits.append((table, start))
            return fit(table, start)

        monkeypatch.setattr(tomography, "mle_reconstruct", recorded)
        monte_carlo_fidelity(before, after, 10, seed, fit(before), fit(after))
        monkeypatch.undo()
        assert len(refits) == 20
        for table, start in refits:
            assert_warm_fit_reaches_cold_likelihood(table, start)

    def test_pure_start_on_depolarised_tables(self):
        # A pure state's factor has three zero eigenvalues, and a search from a
        # rank-one factor stays rank one: only the floor lets it reach the
        # full-rank optimum of a depolarised table.
        rng = np.random.default_rng(5)
        for seed in range(20):
            pure = DensityMatrix.from_pure(random_pure_state(rng))
            table = sample_counts(expected_counts(depolarize(pure, 0.05), 1e4, 5.0), seed, 5.0)
            assert_warm_fit_reaches_cold_likelihood(table, _factor_params(pure.matrix))

    def test_refits_skip_the_least_squares_start(self, monkeypatch):
        table = table_for(depolarize(SINGLET, 0.1), 1e4)
        rho_hat = mle_reconstruct(table)

        def least_squares_start(_):
            raise AssertionError("a Monte Carlo refit computed a least-squares start")

        monkeypatch.setattr(tomography, "_start_params", least_squares_start)
        dist = monte_carlo_fidelity(
            table, table, reps=5, seed=3, rho_before=rho_hat, rho_after=rho_hat
        )
        assert dist.samples.size == 5


def criterion_6_tables() -> list[CountsTable]:
    """The 20 rounded n=1e6 tables of acceptance criterion 6, half of them pure."""
    rng = np.random.default_rng(61)
    tables = []
    for i in range(20):
        if i % 2 == 0:
            rho = DensityMatrix.from_pure(random_pure_state(rng))
        else:
            rho = DensityMatrix(random_density_matrix(rng, rank=int(rng.integers(2, 5))))
        tables.append(CountsTable(np.rint(expected_counts(rho, 1e6)).astype(np.int64)))
    return tables


def assert_stationary(table: CountsTable):
    """First-order optimality of the fit over density matrices, in units of n_hat.

    With G = sum_s w_s P_s, w_s = n_hat (1 - n_s / mu_s), the fit rho maximizes
    the likelihood only if G' = G - Tr(G rho) I annihilates rho and has no
    negative eigenvalue.
    """
    rho = mle_reconstruct(table).matrix
    n_hat = _estimate_n_per_setting(table)
    mu = expected_counts(DensityMatrix(rho), n_hat, table.accidental_rate_per_setting)
    w = n_hat * (1.0 - table.counts / np.maximum(mu, 1e-10))
    G = np.einsum("s,sij->ij", w, _SETTING_OPS)
    G -= np.trace(G @ rho).real * np.eye(4)
    assert np.abs(G @ rho).max() <= 1e-4 * n_hat
    assert np.linalg.eigvalsh(G).min() >= -1e-4 * n_hat


class TestStationarity:
    @pytest.mark.parametrize(
        "name", ["tomo_full_before", "tomo_full_after", "tomo_naive_before", "tomo_naive_after"]
    )
    def test_bundled_counts(self, bundled_counts, name):
        assert_stationary(bundled_counts[name])

    def test_criterion_6_states(self):
        for table in criterion_6_tables():
            assert_stationary(table)


class TestSerialization:
    def test_counts_csv_roundtrip(self, tmp_path):
        table = table_for(SINGLET, 12345.0)
        path = tmp_path / "counts.csv"
        write_counts_csv(table, path)
        expected = ["alice,bob,counts"] + [
            f"{a},{b},{c}" for (a, b), c in zip(setting_labels(), table.counts)
        ]
        assert path.read_text() == "\n".join(expected) + "\n"
        assert len(expected) == 37

    def test_projector_labels_constant(self):
        assert PROJECTOR_LABELS == "HVDALR"
