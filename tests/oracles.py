"""Independent reference implementations used to check the fast paths."""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from scipy import optimize, signal

from entsync.correlation import G2Histogram, PeakPair
from entsync.errors import PeaksNotFoundError, ReconstructionError
from entsync.timetags import PS_PER_S, _poisson_arrivals_ps
from entsync.tomography import (
    _SETTING_OPS,
    _SETTING_TRACE,
    DensityMatrix,
    _estimate_n_per_setting,
    _rho_from_params,
    _start_params,
    expected_counts,
    setting_labels,
)


def g2_bruteforce(
    a_ts: np.ndarray, b_ts: np.ndarray, tau_min_ps: int, tau_max_ps: int, bin_width_ps: int
) -> np.ndarray:
    """All-pairs O(n*m) histogram of tau = t_b - t_a; the sweep must match it."""
    n_bins = int(math.ceil((tau_max_ps - tau_min_ps) / bin_width_ps))
    hi_edge = tau_min_ps + n_bins * bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    for t in np.asarray(a_ts, dtype=np.int64):
        diffs = np.asarray(b_ts, dtype=np.int64) - t
        sel = (diffs >= tau_min_ps) & (diffs < hi_edge)
        if np.any(sel):
            np.add.at(counts, (diffs[sel] - tau_min_ps) // bin_width_ps, 1)
    return counts


def dense_counts(hist) -> np.ndarray:
    """A G2Histogram's count in every bin of its window, 0 in each bin it does not hold."""
    dense = np.zeros(hist.n_bins, dtype=np.int64)
    dense[hist.bins] = hist.counts
    return dense


def dense_centers(hist) -> np.ndarray:
    """The position of every bin of a G2Histogram's window."""
    return hist.bin_centers_ps(np.arange(hist.n_bins))


def histogram_from_dense(tau_min_ps, bin_width_ps, counts, n_a, n_b, duration_ps):
    """The G2Histogram whose count in bin i is ``counts[i]``."""
    counts = np.asarray(counts, dtype=np.int64)
    bins = np.flatnonzero(counts)
    return G2Histogram(
        tau_min_ps, bin_width_ps, counts.size, bins, counts[bins], n_a, n_b, duration_ps
    )


def local_maxima_reference(x: np.ndarray, threshold: float) -> np.ndarray:
    """scipy's local maxima of x, kept where x exceeds threshold."""
    candidates, _ = signal.find_peaks(np.asarray(x, dtype=np.float64))
    return candidates[x[candidates] > threshold]


def find_two_peaks_reference(hist, params) -> PeakPair:
    """The peak search on the densified histogram: np.median background, scipy's maxima
    and each centroid window read from the dense counts. Raises PeaksNotFoundError
    wherever the sparse search must."""
    counts, width = dense_counts(hist), hist.bin_width_ps
    if counts.size == 0:
        raise PeaksNotFoundError("empty histogram")
    med = float(np.median(counts))
    mad = float(np.median(np.abs(counts - med)))
    sigma_bg = max(1.4826 * mad, math.sqrt(med + 1.0))
    candidates = local_maxima_reference(counts, med + params.threshold_sigma * sigma_bg)
    if candidates.size < 2:
        raise PeaksNotFoundError("fewer than two maxima")
    order = candidates[np.argsort(counts[candidates])[::-1]]
    first = int(order[0])
    far = [int(i) for i in order[1:] if abs(int(i) - first) * width >= params.min_separation_ps]
    if not far:
        raise PeaksNotFoundError("no second maximum")
    centers = dense_centers(hist)
    acc = hist.accidentals_per_bin

    def centroid(cur):
        position, sigma, peak, visited = float(centers[cur]), float(width), 0, set()
        for _ in range(25):
            lo = max(0, cur - params.centroid_halfwidth_bins)
            hi = min(counts.size, cur + params.centroid_halfwidth_bins + 1)
            w = np.clip(counts[lo:hi].astype(np.float64) - med, 0.0, None)
            wsum = float(w.sum())
            if wsum <= 0.0:
                break
            tau = centers[lo:hi]
            position = float(np.dot(w, tau) / wsum)
            var = float(np.dot(w, (tau - position) ** 2) / wsum)
            sigma = math.sqrt(max(var, width**2 / 12.0) / wsum)
            peak = counts[lo:hi].max()
            nxt = min(max(int((position - hist.tau_min_ps) // width), 0), counts.size - 1)
            if nxt == cur or nxt in visited:
                break
            visited.add(cur)
            cur = nxt
        return position, sigma, float(peak / acc) if acc > 0 else 0.0

    (tau1, s1, h1), (tau2, s2, h2) = centroid(first), centroid(far[0])
    if tau1 >= tau2:
        return PeakPair(tau1, tau2, s1, s2, h1, h2)
    return PeakPair(tau2, tau1, s2, s1, h2, h1)


def fit_peak_gaussian(hist, tau_guess_ps: float, halfwidth_ps: float) -> dict:
    """Least-squares Gaussian fit to a G2Histogram around one peak; reports FWHM."""
    centers = dense_centers(hist)
    mask = np.abs(centers - tau_guess_ps) <= halfwidth_ps
    x = centers[mask]
    y = dense_counts(hist)[mask].astype(np.float64)
    if x.size < 5 or y.max() <= 0:
        raise ValueError("not enough data around tau_guess_ps for a fit")

    def model(t, amp, mu, sigma, base):
        return amp * np.exp(-0.5 * ((t - mu) / sigma) ** 2) + base

    amp0 = float(y.max() - np.median(y))
    mu0 = float(x[np.argmax(y)])
    sigma0 = max(halfwidth_ps / 4.0, hist.bin_width_ps)
    popt, _ = optimize.curve_fit(
        model, x, y, p0=[amp0, mu0, sigma0, float(np.median(y))], maxfev=10_000
    )
    amp, mu, sigma, base = popt
    sigma = abs(float(sigma))
    return {
        "amplitude": float(amp),
        "center_ps": float(mu),
        "sigma_ps": sigma,
        "fwhm_ps": 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma,
        "baseline": float(base),
    }


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_density_matrix(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Ginibre-ensemble mixed state of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return rho


def dead_time_keep_reference(timestamps: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Event-by-event dead time: keep an event when it is at least dead_time_ps
    after the previous kept one."""
    keep = np.ones(timestamps.size, dtype=bool)
    last = None
    for i, t in enumerate(timestamps):
        if last is not None and t - last < dead_time_ps:
            keep[i] = False
        else:
            last = t
    return keep


def apply_detector_reference(timestamps, det, duration_s: float, seed: int) -> np.ndarray:
    """The detector with a copy per stage and whole-array draws: efficiency, jitter
    and darks each from its own sub-generator of seed, one copying sort, then
    event-by-event dead time. apply_detector draws in chunks and must match it."""
    thin_rng, jitter_rng, dark_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(3)
    )
    ts = timestamps
    if det.efficiency < 1.0:
        ts = ts[thin_rng.random(ts.size) < det.efficiency]
    if det.jitter_sigma_ps > 0:
        ts = np.rint(jitter_rng.normal(0.0, det.jitter_sigma_ps, ts.size)).astype(np.int64) + ts
    if det.dark_rate_hz > 0:
        n_dark = dark_rng.poisson(det.dark_rate_hz * duration_s)
        dark_ts = np.rint(dark_rng.random(n_dark) * duration_s * PS_PER_S).astype(np.int64)
        ts = np.concatenate([ts, dark_ts])
    ts = np.sort(ts, kind="stable")
    if det.dead_time_ps > 0 and ts.size:
        ts = ts[dead_time_keep_reference(ts, det.dead_time_ps)]
    return ts


def _detector_stage_reference(timestamps, det, duration_s: float, seed: int) -> np.ndarray:
    """The second stage of two_stage_arms_reference: efficiency, jitter, dark count
    and dark times from one generator in that order, one copying sort, then
    event-by-event dead time."""
    rng = np.random.default_rng(seed)
    ts = timestamps
    if det.efficiency < 1.0:
        ts = ts[rng.random(ts.size) < det.efficiency]
    if det.jitter_sigma_ps > 0 and ts.size:
        ts = np.rint(rng.normal(0.0, det.jitter_sigma_ps, ts.size)).astype(np.int64) + ts
    if det.dark_rate_hz > 0:
        n_dark = rng.poisson(det.dark_rate_hz * duration_s)
        dark_ts = np.rint(rng.random(n_dark) * duration_s * PS_PER_S).astype(np.int64)
        ts = np.concatenate([ts, dark_ts])
    ts = np.sort(ts, kind="stable")
    if det.dead_time_ps > 0 and ts.size:
        ts = ts[dead_time_keep_reference(ts, det.dead_time_ps)]
    return ts


def two_stage_arms_reference(source, det, duration_s: float, seeds: tuple[int, int, int]):
    """One source's two detected arms, drawn in two stages (no channel).

    The source stage draws the Poisson emission times, then each arm's emission
    jitter (rounded), then each arm's heralding thinning, and sorts both arms.
    Each arm's detector ``det`` then thins, jitters and sorts it again. ``seeds``
    are the source's and the two detectors' seeds. Returns the emission times
    and the local and remote arms. arm_detector's one-stage arm must match
    their statistics: kept fraction, residual spread and g2 peak width.
    """
    rng = np.random.default_rng(seeds[0])
    emission = _poisson_arrivals_ps(rng, source.pair_rate_hz, duration_s * PS_PER_S)
    sigma = source.emission_jitter_sigma_ps
    sent = [emission, emission]
    if sigma > 0:
        sent = [
            np.rint(rng.normal(0.0, sigma, emission.size)).astype(np.int64) + emission
            for _ in sent
        ]
    if source.heralding_efficiency < 1.0:
        sent = [ts[rng.random(emission.size) < source.heralding_efficiency] for ts in sent]
    local, remote = (np.sort(ts, kind="stable") for ts in sent)
    return (
        emission,
        _detector_stage_reference(local, det, duration_s, seeds[1]),
        _detector_stage_reference(remote, det, duration_s, seeds[2]),
    )


def merge_reference(*detections) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (timestamps, label) pairs and lexsort by time, then label."""
    ts = np.concatenate([np.asarray(t, dtype=np.int64) for t, _ in detections])
    ch = np.concatenate([np.full(len(t), label, dtype=np.uint32) for t, label in detections])
    order = np.lexsort((ch, ts))
    return ts[order], ch[order]


def channel_arrivals_reference(timestamps, direction, schedule) -> np.ndarray:
    """Each send time plus the delay of its segment, found per event, then sorted."""
    delays = np.array([cfg.delay_rounded_ps(direction) for _, cfg in schedule], dtype=np.int64)
    starts = np.array([start for start, _ in schedule[1:]], dtype=np.int64)
    segment = np.searchsorted(starts, timestamps, side="right")
    return np.sort(timestamps + delays[segment])


def clock_reading_reference(t_ps: int, clock) -> int:
    """A clock's reading of ideal time t_ps in exact rational arithmetic, rounded once."""
    return t_ps + round(Fraction(t_ps) * Fraction(clock.drift_ppb) / 10**9) + clock.offset_ps


def histogram_csv_reference(hist) -> bytes:
    """Row-by-row text of a G2Histogram's CSV; the vectorised writer must match it.

    Only the occupied bins have a row. g2 is the count over the accidentals per
    bin, and 0 when there are none.
    """
    acc, width = hist.accidentals_per_bin, hist.bin_width_ps
    lines = ["tau_ps,counts,g2"]
    for i, n in enumerate(dense_counts(hist)):
        if n == 0:
            continue
        # The exact centre of the integers the bin holds, in decimal: an integer
        # or a half-integer.
        centre = Decimal(2 * hist.tau_min_ps + 2 * i * width + width - 1) / 2
        lines.append(f"{centre:f},{int(n)},{n / acc if acc > 0 else 0.0:.10g}")
    return ("\n".join(lines) + "\n").encode()


def tags_csv_reference(stream) -> bytes:
    """Row-by-row text of a time-tag CSV file."""
    lines = ["timestamp_ps,channel"]
    lines.extend(f"{int(t)},{int(c)}" for t, c in zip(stream.timestamps_ps, stream.channels))
    return ("\n".join(lines) + "\n").encode()


def n_per_setting_reference(counts) -> float:
    """Mean count sum over the nine (first-pair, second-pair) groups of complementary
    projectors H/V, D/A, L/R, less the accidentals, floored at 1."""
    pairs = (("H", "V"), ("D", "A"), ("L", "R"))
    index = {(a, b): i for i, (a, b) in enumerate(setting_labels())}
    sums = []
    for a_pair in pairs:
        for b_pair in pairs:
            total = sum(int(counts.counts[index[a, b]]) for a in a_pair for b in b_pair)
            sums.append(total - 4.0 * counts.accidental_rate_per_setting)
    return max(float(np.mean(sums)), 1.0)


def poisson_nll(rho, counts) -> float:
    """The Poisson negative log-likelihood that mle_reconstruct minimises, at rho."""
    n_hat = _estimate_n_per_setting(counts)
    mu = expected_counts(rho, n_hat, counts.accidental_rate_per_setting)
    mu = np.clip(mu, 1e-10, None)
    return float(np.sum(mu - counts.counts * np.log(mu)))


def mle_reconstruct_fd_reference(counts, max_evals: int = 100_000):
    """The likelihood fit with L-BFGS-B's own finite-difference gradient.

    Same start, factor, objective and options as mle_reconstruct, plus one
    restart, but no jac: each gradient costs 33 likelihood evaluations. The analytic-gradient
    fit must reach at least this likelihood and the same density matrix.
    """
    def negative_log_likelihood(t):
        return poisson_nll(DensityMatrix(_rho_from_params(t)), counts)

    t0 = _start_params(counts)
    return _lbfgsb_density(negative_log_likelihood, t0, _rho_from_params, False, max_evals)


def _lbfgsb_density(objective, t0, rho_from_params, jac: bool, max_evals: int):
    """mle_reconstruct's search and scrub, plus one restart, for any parameterization."""
    options = {"maxfun": max_evals, "maxiter": max_evals, "ftol": 1e-12, "gtol": 1e-10}
    result = optimize.minimize(objective, t0, jac=jac, method="L-BFGS-B", options=options)
    if not result.success:
        result = optimize.minimize(objective, result.x, jac=jac, method="L-BFGS-B", options=options)
    if not result.success:
        raise ReconstructionError(f"likelihood search did not converge: {result.message}")
    rho = rho_from_params(result.x)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


# --- the lower-triangular (Cholesky) likelihood fit -------------------------
#
# James et al., PRA 64, 052312 (2001): rho = T^dagger T / Tr(T^dagger T) with T
# lower triangular and a real diagonal, 16 real parameters, started from the
# Cholesky factor of the floored linear-inversion estimate. mle_reconstruct's
# full complex factor must reach at least its likelihood.

# Flat positions in T of the 16 real parameters: t[:4] is the real diagonal,
# t[4::2] and t[5::2] are the real and imaginary parts of the strictly lower
# entries in row-major order.
_T_DIAG = np.array([0, 5, 10, 15])
_T_LOWER = np.array([4, 8, 9, 12, 13, 14])


def _cholesky_factor(t: np.ndarray) -> np.ndarray:
    T = np.zeros(16, dtype=np.complex128)
    T[_T_DIAG] = t[:4]
    T[_T_LOWER] = t[4::2] + 1j * t[5::2]
    return T.reshape(4, 4)


def _rho_from_cholesky(t: np.ndarray) -> np.ndarray:
    T = _cholesky_factor(t)
    rho = T.conj().T @ T
    return rho / np.trace(rho).real


def _cholesky_params_from_rho(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 1e-6, None)
    psd = (v * w) @ v.conj().T
    psd /= np.trace(psd).real
    # rho = T^dagger T needs the upper-times-lower factorization; flipping the
    # matrix turns the standard Cholesky factor into the one required.
    flip = np.eye(4)[::-1]
    lower = np.linalg.cholesky(flip @ psd @ flip)
    T = (flip @ lower @ flip).conj().T.reshape(16)
    t = np.empty(16)
    t[:4] = T[_T_DIAG].real
    t[4::2] = T[_T_LOWER].real
    t[5::2] = T[_T_LOWER].imag
    return t


def _hermitian_basis() -> list[np.ndarray]:
    """Real basis of Hermitian 4x4 matrices: E_kk, symmetric and antisymmetric
    off-diagonal combinations."""
    basis = []
    for k in range(4):
        m = np.zeros((4, 4), dtype=np.complex128)
        m[k, k] = 1.0
        basis.append(m)
    for r in range(4):
        for c in range(r + 1, 4):
            m = np.zeros((4, 4), dtype=np.complex128)
            m[r, c] = m[c, r] = 1.0
            basis.append(m)
            m = np.zeros((4, 4), dtype=np.complex128)
            m[r, c] = -1j
            m[c, r] = 1j
            basis.append(m)
    return basis


_HERMITIAN_BASIS = _hermitian_basis()
# Row s, column k: Tr(P_s @ B_k), the setting probabilities per basis coefficient.
_DESIGN = np.array(
    [[(p.T.reshape(16) @ b.reshape(16)).real for b in _HERMITIAN_BASIS] for p in _SETTING_OPS]
)


def _linear_inversion(table, n_hat: float) -> np.ndarray:
    """Least-squares Hermitian estimate in the real Hermitian basis."""
    probs = (table.counts - table.accidental_rate_per_setting) / n_hat
    coef, *_ = np.linalg.lstsq(_DESIGN, probs, rcond=None)
    rho = sum(c * b for c, b in zip(coef, _HERMITIAN_BASIS))
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        return np.eye(4, dtype=np.complex128) / 4.0
    return rho / tr


def _cholesky_nll_and_gradient(counts):
    """The Poisson negative log-likelihood of the Cholesky parameters, with its
    gradient (2 / Tr T^dagger T) T G' packed by index."""
    n_hat = _estimate_n_per_setting(counts)
    acc = counts.accidental_rate_per_setting
    observed = counts.counts.astype(np.float64)
    ops = _SETTING_OPS.reshape(36, 16)

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        T = _cholesky_factor(t)
        norm = float(t @ t)
        rho = (T.conj().T @ T) / norm
        probs = (_SETTING_TRACE @ rho.reshape(16)).real
        mu = n_hat * np.maximum(probs, 0.0) + acc
        live = (probs > 0.0) & (mu > 1e-10)
        mu = np.maximum(mu, 1e-10)
        value = float(np.sum(mu - observed * np.log(mu)))
        w = np.where(live, n_hat * (1.0 - observed / mu), 0.0)
        g = w @ ops
        g[_T_DIAG] -= w @ probs
        k = (T @ g.reshape(4, 4)).reshape(16) * (2.0 / norm)
        grad = np.empty(16)
        grad[:4] = k[_T_DIAG].real
        grad[4::2] = k[_T_LOWER].real
        grad[5::2] = k[_T_LOWER].imag
        return value, grad

    return objective


def mle_reconstruct_cholesky_reference(counts, max_evals: int = 100_000):
    """The likelihood fit over the lower-triangular factor, with its analytic
    gradient, mle_reconstruct's options and one restart."""
    if counts.counts.sum() <= 0:
        raise ReconstructionError("all counts are zero; nothing to reconstruct")
    t0 = _cholesky_params_from_rho(_linear_inversion(counts, _estimate_n_per_setting(counts)))
    objective = _cholesky_nll_and_gradient(counts)
    return _lbfgsb_density(objective, t0, _rho_from_cholesky, True, max_evals)
