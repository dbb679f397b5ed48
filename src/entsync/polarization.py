"""Polarization states, Faraday rotation phases, and the circulator action.

Circular-basis convention, fixed here and used everywhere:

    |R> = (|H> - i|V>) / sqrt(2),    |L> = (|H> + i|V>) / sqrt(2)

Every testable conclusion below (phase cancellation, global-phase action on
entangled input) is independent of this choice.

A polarization-insensitive circulator rotates the plane of polarization by a
half turn via circular birefringence. The rotated photon picks up a geometric
phase from its closed path on the Poincare sphere and a dynamic phase from
propagation through the medium; their state-dependent parts cancel exactly,
leaving a global phase.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# The basis of every stored state, as written to density-matrix files.
BASIS_HV = "HV"

# Rows are (R, L) coordinates of the (H, V) basis vectors: x_RL = _HV_TO_RL @ x_HV.
_HV_TO_RL = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)
_RL_TO_HV = _HV_TO_RL.conj().T


@dataclass(frozen=True)
class JonesState:
    """Single-photon polarization amplitudes in the HV basis, norm 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(2)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            raise ConfigError(f"Jones vector norm is {norm}, expected 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_rl(cls, rl) -> "JonesState":
        """The state with circular amplitudes (c_R, c_L)."""
        return cls(_RL_TO_HV @ rl)

    @property
    def rl(self) -> np.ndarray:
        """The circular amplitudes (c_R, c_L)."""
        return _HV_TO_RL @ self.amplitudes

    def overlap(self, other: "JonesState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class TwoQubitState:
    """Two-photon amplitudes in the HV basis, first-party (x) second-party ordering, norm 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(4)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            raise ConfigError(f"two-qubit state norm is {norm}, expected 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "TwoQubitState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def bell_psi_minus() -> TwoQubitState:
    """The polarization singlet (|HV> - |VH>) / sqrt(2)."""
    return TwoQubitState(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def state_fidelity(a: TwoQubitState, b: TwoQubitState) -> float:
    """|<a|b>|^2 for pure states."""
    return abs(a.overlap(b)) ** 2


def apply_to_second(state: TwoQubitState, unitary_rl: np.ndarray) -> TwoQubitState:
    """Apply a single-photon unitary, given in the RL basis, to the second photon only."""
    unitary_hv = _RL_TO_HV @ unitary_rl @ _HV_TO_RL
    amps = state.amplitudes.reshape(2, 2)
    out = np.einsum("ij,aj->ai", unitary_hv, amps).reshape(4)
    return TwoQubitState(out)


@dataclass(frozen=True)
class FaradayParams:
    """Magneto-optic rotator: base index n0, length d, total rotation VBd."""

    wavelength_nm: float = 810.0
    n0: float = 1.5
    length_d_m: float = 0.01
    rotation_VBd_rad: float = -math.pi

    def __post_init__(self):
        if not math.isfinite(self.wavelength_nm) or self.wavelength_nm <= 0:
            raise ConfigError("wavelength_nm must be > 0")
        if not math.isfinite(self.n0) or self.n0 <= 1.0:
            raise ConfigError("n0 must be > 1")
        if not math.isfinite(self.length_d_m) or self.length_d_m <= 0:
            raise ConfigError("length_d_m must be > 0")
        if not math.isfinite(self.rotation_VBd_rad):
            raise ConfigError("rotation_VBd_rad must be finite")

    def require_half_turn(self, field: str = "rotation_VBd_rad"):
        if abs(self.rotation_VBd_rad + math.pi) > 1e-9:
            raise ConfigError(f"{field} must equal -pi (half-turn circulator)")

    @property
    def wavenumber_rad_per_m(self) -> float:
        return 2.0 * math.pi / (self.wavelength_nm * 1e-9)

    @property
    def index_r(self) -> float:
        """Index seen by |R>: n0 + VB/k."""
        return self.n0 + self.rotation_VBd_rad / (self.wavenumber_rad_per_m * self.length_d_m)

    @property
    def index_l(self) -> float:
        return self.n0 - self.rotation_VBd_rad / (self.wavenumber_rad_per_m * self.length_d_m)

    @property
    def phase_kn0d_rad(self) -> float:
        return self.wavenumber_rad_per_m * self.n0 * self.length_d_m


def to_poincare(psi: JonesState) -> tuple[float, float]:
    """Sphere angles (theta from the |R> pole, azimuth phi in [0, 2pi)).

    The state factors as exp(-i*phi) * cos(theta/2)|R> + sin(theta/2)|L> up to
    a global phase.
    """
    c_r, c_l = psi.rl
    theta = 2.0 * math.atan2(abs(c_l), abs(c_r))
    if abs(c_r) < 1e-12 or abs(c_l) < 1e-12:
        return theta, 0.0
    phi = (cmath.phase(c_l) - cmath.phase(c_r)) % (2.0 * math.pi)
    return theta, phi


def poincare_state(theta_rad: float, phi_rad: float = 0.0) -> JonesState:
    """Inverse of to_poincare, fixing the global phase so the |L> term is real."""
    return JonesState.from_rl(
        [cmath.exp(-1j * phi_rad) * math.cos(theta_rad / 2.0), math.sin(theta_rad / 2.0)]
    )


def geometric_phase(theta_rad: float) -> float:
    """Phase from one full azimuthal circuit at polar angle theta.

    Equal to minus half the solid angle enclosed by the trajectory:
    -pi * (1 - cos(theta)).
    """
    if not -1e-9 <= theta_rad <= math.pi + 1e-9:
        raise ConfigError("theta_rad must be in [0, pi]")
    return -math.pi * (1.0 - math.cos(theta_rad))


def dynamic_phase(p: FaradayParams, theta_rad: float) -> float:
    """Propagation phase through the full rotator: k*n0*d + VBd*cos(theta)."""
    return p.phase_kn0d_rad + p.rotation_VBd_rad * math.cos(theta_rad)


def _circular_phases(p: FaradayParams, z_m: float) -> np.ndarray:
    """(exp(i*k*n_R*z), exp(i*k*n_L*z)): the phases of |R> and |L> at depth z."""
    # Factor the common propagation phase out before exponentiating: at
    # k*n0*z of order 1e5 rad, exp(i*(common +/- split)) would lose the
    # relative phase between the components to argument rounding.
    common = cmath.exp(1j * (p.wavenumber_rad_per_m * p.n0 * z_m))
    split = cmath.exp(1j * (p.rotation_VBd_rad * (z_m / p.length_d_m)))
    return common * np.array([split, split.conjugate()])


def faraday_propagate(psi: JonesState, z_m: float, p: FaradayParams) -> JonesState:
    """Evolve a state to penetration depth z inside the rotator.

    The circular components accumulate exp(i*k*n_R*z) and exp(i*k*n_L*z);
    a linearly polarized input rotates by VB*z in the polarization plane.
    """
    if not 0.0 <= z_m <= p.length_d_m + 1e-15:
        raise ConfigError("z_m must be within [0, length_d_m]")
    return JonesState.from_rl(psi.rl * _circular_phases(p, z_m))


def circulator_unitary(p: FaradayParams) -> np.ndarray:
    """Full-traversal matrix diag(exp(i*k*n_R*d), exp(i*k*n_L*d)) in the RL basis.

    At VBd = -pi both circular components acquire the same factor
    -exp(i*k*n0*d), so the matrix is a global phase times the identity.
    """
    return np.diag(_circular_phases(p, p.length_d_m))


def apply_attack_full(state: TwoQubitState, p: FaradayParams) -> TwoQubitState:
    """Send the second photon through the circulator pair, all phases included.

    With the half-turn condition the action is a global phase, so every input
    state (entangled or not) is preserved up to normalization-invisible phase.
    """
    p.require_half_turn()
    return apply_to_second(state, circulator_unitary(p))


def apply_attack_naive_geometric(state: TwoQubitState, theta_rad: float) -> TwoQubitState:
    """Geometric-phase-only model of the circulator pair (kept as a foil).

    Applies exp(i*beta) to the second photon's |psi(theta)> component and
    exp(-i*beta) to the orthogonal component, ignoring the dynamic phase.
    This is the prediction that a nonlocal measurement could reveal the
    rotation; the full model shows it cannot.
    """
    beta = geometric_phase(theta_rad)
    c, s = math.cos(theta_rad / 2.0), math.sin(theta_rad / 2.0)
    basis_rl = np.array([[c, -s], [s, c]], dtype=np.complex128)  # columns: psi, psi_perp
    u_rl = basis_rl @ np.diag([cmath.exp(1j * beta), cmath.exp(-1j * beta)]) @ basis_rl.conj().T
    return apply_to_second(state, u_rl)


@dataclass(frozen=True)
class PhaseDecomposition:
    geometric_beta_rad: float
    dynamic_gamma_rad: float

    @property
    def total_rad(self) -> float:
        return self.geometric_beta_rad + self.dynamic_gamma_rad


def orthogonal_state(theta_rad: float) -> JonesState:
    """The companion state -sin(theta/2)|R> + cos(theta/2)|L>."""
    return JonesState.from_rl([-math.sin(theta_rad / 2.0), math.cos(theta_rad / 2.0)])


def phase_decomposition(
    p: FaradayParams, theta_rad: float, orthogonal: bool = False
) -> PhaseDecomposition:
    """Split the half-turn traversal phase into geometric and dynamic parts.

    The theta dependence of the two parts cancels: the total is k*n0*d - pi
    for every input state, and k*n0*d + pi (the same angle) for the
    orthogonal companion, whose geometric phase has the opposite sign.
    The tests cross-check the total against the eigenphase of the traversal
    matrix, ``circulator_unitary``.
    """
    p.require_half_turn()
    if orthogonal:
        return PhaseDecomposition(
            -geometric_phase(theta_rad),
            p.phase_kn0d_rad - p.rotation_VBd_rad * math.cos(theta_rad),
        )
    return PhaseDecomposition(geometric_phase(theta_rad), dynamic_phase(p, theta_rad))

