"""Two-photon polarization tomography with Poissonian error propagation.

Both photons are projected onto each of {H, V, D, A, L, R}, giving 36 count
settings. The density matrix is recovered by maximizing the Poisson
likelihood over a complex factor A, rho = A^dagger A / Tr(A^dagger A), which
keeps the estimate Hermitian, unit-trace and positive by construction.
Counting-statistics error bars come from re-sampling the observed counts and
repeating the fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import rng as rngmod
from .errors import ConfigError, ReconstructionError
from .polarization import BASIS_HV
from .timetags import atomic_write_bytes

PROJECTOR_LABELS = "HVDALR"

_SQ2 = 1.0 / math.sqrt(2.0)
_PROJECTOR_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=np.complex128),
    "V": np.array([0.0, 1.0], dtype=np.complex128),
    "D": np.array([_SQ2, _SQ2], dtype=np.complex128),
    "A": np.array([_SQ2, -_SQ2], dtype=np.complex128),
    "L": np.array([_SQ2, _SQ2 * 1j], dtype=np.complex128),
    "R": np.array([_SQ2, -_SQ2 * 1j], dtype=np.complex128),
}


def setting_labels() -> list[tuple[str, str]]:
    """All 36 (first-party, second-party) settings in canonical order."""
    return [(a, b) for a in PROJECTOR_LABELS for b in PROJECTOR_LABELS]


def _setting_operators() -> np.ndarray:
    ops = np.empty((36, 4, 4), dtype=np.complex128)
    for idx, (a, b) in enumerate(setting_labels()):
        va = _PROJECTOR_VECTORS[a]
        vb = _PROJECTOR_VECTORS[b]
        ops[idx] = np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    return ops


_SETTING_OPS = _setting_operators()
# Row s dotted with rho.flatten() gives Tr(P_s @ rho).
_SETTING_TRACE = _SETTING_OPS.transpose(0, 2, 1).reshape(36, 16)


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        # A copy, so that the caller's array cannot change the checked matrix.
        m = np.array(self.matrix, dtype=np.complex128).reshape(4, 4)
        if float(np.abs(m - m.conj().T).max()) > 1e-10:
            raise ConfigError("rho is not Hermitian within 1e-10")
        trace = np.trace(m)
        if abs(float(trace.real) - 1.0) > 1e-10 or abs(float(trace.imag)) > 1e-10:
            raise ConfigError("rho trace differs from 1 by more than 1e-10")
        if float(np.linalg.eigvalsh(m).min()) < -1e-10:
            raise ConfigError("rho has an eigenvalue below -1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_pure(amplitudes: np.ndarray) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=np.complex128).reshape(4)
        v = v / np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Mix a fraction p of the maximally mixed state into rho."""
    return DensityMatrix((1.0 - p) * rho.matrix + p * np.eye(4) / 4.0)


@dataclass(frozen=True)
class CountsTable:
    """36 setting counts (first-party-major order) plus the accidental rate."""

    counts: np.ndarray
    accidental_rate_per_setting: float = 0.0

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64).reshape(36)
        if np.any(c < 0):
            raise ConfigError("counts must be non-negative")
        if self.accidental_rate_per_setting < 0:
            raise ConfigError("accidental_rate_per_setting must be >= 0")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)


def expected_counts(
    rho: DensityMatrix, n_per_setting: float, accidentals: float = 0.0
) -> np.ndarray:
    """Mean counts per setting: n * <P_a x P_b> + accidentals.

    A probability below 1e-14 is round-off of 0 and counts as 0: numpy's Poisson
    draw takes a uniform for any positive mean, which would shift every later draw.
    """
    probs = (_SETTING_TRACE @ rho.matrix.reshape(16)).real
    return n_per_setting * np.where(probs < 1e-14, 0.0, probs) + accidentals


def sample_counts(
    expected: np.ndarray,
    seed: int,
    accidental_rate_per_setting: float = 0.0,
) -> CountsTable:
    """Independent Poisson draws around the expected counts."""
    means = np.asarray(expected, dtype=np.float64).reshape(36)
    draws = np.random.default_rng(seed).poisson(means)
    return CountsTable(draws, accidental_rate_per_setting)


def _estimate_n_per_setting(table: CountsTable) -> float:
    # HVDALR pairs complementary projectors (H/V, D/A, L/R), so each group of
    # four settings over one pair per party captures every photon and its
    # count sum estimates the per-setting total.
    sums = table.counts.reshape(3, 2, 3, 2).sum(axis=(1, 3))
    return max(float(np.mean(sums - 4.0 * table.accidental_rate_per_setting)), 1.0)


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    A = (t[:16] + 1j * t[16:]).reshape(4, 4)
    rho = A.conj().T @ A
    return rho / np.trace(rho).real


def _start_params(table: CountsTable) -> np.ndarray:
    """Factor of the least-squares estimate, floored to positive, that seeds the search.

    The 36 settings are tomographically complete, so the complex least-squares
    solution of Tr(P_s X) = p_s is Hermitian up to round-off.
    """
    probs = (table.counts - table.accidental_rate_per_setting) / _estimate_n_per_setting(table)
    x, *_ = np.linalg.lstsq(_SETTING_TRACE, probs.astype(np.complex128), rcond=None)
    rho = x.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    rho = np.eye(4) / 4.0 if abs(tr) < 1e-12 else rho / tr
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 1e-6, None)
    A = (v * np.sqrt(w / w.sum())) @ v.conj().T  # Hermitian square root, Tr(A^dagger A) = 1
    return np.concatenate([A.real.reshape(16), A.imag.reshape(16)])


def _nll_and_gradient(counts: CountsTable):
    """Poisson negative log-likelihood of the factor parameters t, with its gradient.

    With A = t[:16] + i t[16:] as a 4x4 matrix, rho = A^dagger A / Tr(A^dagger A),
    mean counts mu_s = n_hat * p_s + acc and p_s = Tr(P_s rho), the likelihood's
    derivative in rho is G = sum_s w_s P_s with w_s = n_hat (1 - n_s / mu_s), and
    w_s = 0 where either clip of mu_s is active. Chained through the
    normalisation with G' = G - Tr(G rho) I, dNLL/dRe A + i dNLL/dIm A is
    k = (2 / Tr A^dagger A) A G'.
    """
    n_hat = _estimate_n_per_setting(counts)
    acc = counts.accidental_rate_per_setting
    observed = counts.counts.astype(np.float64)
    ops = _SETTING_OPS.reshape(36, 16)

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        A = (t[:16] + 1j * t[16:]).reshape(4, 4)
        norm = float(t @ t)  # Tr(A^dagger A)
        rho = (A.conj().T @ A) / norm
        probs = (_SETTING_TRACE @ rho.reshape(16)).real
        mu = n_hat * np.maximum(probs, 0.0) + acc
        live = (probs > 0.0) & (mu > 1e-10)
        mu = np.maximum(mu, 1e-10)
        value = float(np.sum(mu - observed * np.log(mu)))

        w = np.where(live, n_hat * (1.0 - observed / mu), 0.0)
        g = w @ ops
        g[::5] -= w @ probs  # G' = G - Tr(G rho) I on the flattened diagonal
        k = (A @ g.reshape(4, 4)).reshape(16) * (2.0 / norm)
        return value, np.concatenate([k.real, k.imag])

    return objective


# L-BFGS-B's cap on iterations and on likelihood evaluations per search.
_EVAL_LIMIT = 100_000


def mle_reconstruct(counts: CountsTable) -> DensityMatrix:
    """Density matrix maximizing the Poisson likelihood of the 36 counts.

    The per-setting total is estimated from the complementary basis-pair sums,
    not configured. L-BFGS-B searches the 32 real parameters of a full complex
    factor A (the factorization of James et al., PRA 64, 052312 (2001), without
    its triangular constraint), starting from the least-squares estimate, with
    the analytic gradient of the Poisson negative log-likelihood. It searches
    once: a search that stops short of convergence raises
    ``ReconstructionError``.
    """
    if counts.counts.sum() <= 0:
        raise ReconstructionError("all counts are zero; nothing to reconstruct")
    t0 = _start_params(counts)
    objective = _nll_and_gradient(counts)
    options = {"maxfun": _EVAL_LIMIT, "maxiter": _EVAL_LIMIT, "ftol": 1e-12, "gtol": 1e-10}
    result = optimize.minimize(objective, t0, jac=True, method="L-BFGS-B", options=options)
    if not result.success:
        raise ReconstructionError(f"likelihood search did not converge: {result.message}")
    rho = _rho_from_params(result.x)
    # Scrub parameterization round-off before the strict type checks.
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def fidelity(rho: DensityMatrix, rho0: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) rho0 sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of sqrt(rho) @ sqrt(rho0), which
    has the same value but does not take square roots of noisy near-zero
    eigenvalues, keeping the result symmetric to machine precision.
    """
    singulars = np.linalg.svd(_sqrt_psd(rho.matrix) @ _sqrt_psd(rho0.matrix), compute_uv=False)
    return float(singulars.sum() ** 2)


@dataclass(frozen=True)
class FidelityDistribution:
    """Monte Carlo fidelity samples with a 95% percentile interval."""

    samples: np.ndarray
    mean: float
    ci95_low: float
    ci95_high: float

    @staticmethod
    def from_samples(samples: np.ndarray) -> "FidelityDistribution":
        s = np.asarray(samples, dtype=np.float64)
        return FidelityDistribution(
            samples=s,
            mean=float(s.mean()),
            ci95_low=float(np.percentile(s, 2.5)),
            ci95_high=float(np.percentile(s, 97.5)),
        )

    def to_json(self) -> dict:
        return {
            "samples": [float(x) for x in self.samples],
            "mean": self.mean,
            "ci95_low": self.ci95_low,
            "ci95_high": self.ci95_high,
        }


def monte_carlo_fidelity(
    counts_before: CountsTable,
    counts_after: CountsTable,
    reps: int,
    seed: int,
) -> FidelityDistribution:
    """Propagate counting noise through the full reconstruction pipeline.

    Each repetition re-draws both tables from Poisson distributions whose
    means are the observed counts, reconstructs both density matrices, and
    records their mutual fidelity. Failed reconstructions are skipped; more
    than 20% failures aborts the run.
    """
    samples = []
    for r in range(reps):
        resampled = [
            sample_counts(
                table.counts.astype(np.float64),
                rngmod.child_seed(seed, rngmod.TOMO_MONTE_CARLO, r, i),
                table.accidental_rate_per_setting,
            )
            for i, table in enumerate((counts_before, counts_after))
        ]
        try:
            rho_b, rho_a = [mle_reconstruct(table) for table in resampled]
        except ReconstructionError:
            continue
        samples.append(fidelity(rho_b, rho_a))
    failures = reps - len(samples)
    if failures > 0.2 * reps:
        raise ReconstructionError(
            f"{failures}/{reps} Monte Carlo repetitions failed to reconstruct"
        )
    return FidelityDistribution.from_samples(np.array(samples))


# --- serialization --------------------------------------------------------


def write_counts_csv(table: CountsTable, path):
    lines = ["alice,bob,counts"]
    for idx, (a, b) in enumerate(setting_labels()):
        lines.append(f"{a},{b},{int(table.counts[idx])}")
    atomic_write_bytes(path, [("\n".join(lines) + "\n").encode()])


def density_to_json(rho: DensityMatrix) -> dict:
    return {
        "basis": BASIS_HV,
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
        ],
    }

