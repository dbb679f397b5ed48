import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsync.errors import ConfigError
from entsync.polarization import (
    FaradayParams,
    JonesState,
    TwoQubitState,
    apply_attack_full,
    apply_attack_naive_geometric,
    bell_psi_minus,
    circulator_unitary,
    dynamic_phase,
    faraday_propagate,
    geometric_phase,
    orthogonal_state,
    phase_decomposition,
    poincare_state,
    state_fidelity,
    to_poincare,
)

H = JonesState(np.array([1.0, 0.0]))
V = JonesState(np.array([0.0, 1.0]))
R = JonesState.from_rl(np.array([1.0, 0.0]))
L = JonesState.from_rl(np.array([0.0, 1.0]))
HALF_TURN = FaradayParams()


class TestJonesState:
    def test_norm_enforced(self):
        with pytest.raises(ConfigError):
            JonesState(np.array([1.0, 1.0]))

    def test_keeps_its_checked_copy(self):
        source = np.array([1.0, 0.0], dtype=np.complex128)
        state = JonesState(source)
        source[0] = 5.0
        assert np.linalg.norm(state.amplitudes) == 1.0

    def test_basis_roundtrip_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = JonesState(amps / np.linalg.norm(amps))
            back = JonesState.from_rl(state.rl)
            assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_circular_convention(self):
        # |R> = (|H> - i|V>)/sqrt(2)
        r_in_hv = R.amplitudes
        assert np.allclose(r_in_hv, np.array([1.0, -1.0j]) / math.sqrt(2.0), atol=1e-12)


class TestTwoQubitState:
    def test_norm_enforced(self):
        with pytest.raises(ConfigError, match="two-qubit state norm is 2.0, expected 1"):
            TwoQubitState(np.array([0.0, 2.0, 0.0, 0.0]))

    def test_keeps_its_checked_copy(self):
        source = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)
        state = TwoQubitState(source)
        source[1] = 5.0
        assert np.linalg.norm(state.amplitudes) == 1.0


class TestPoincare:
    def test_circular_poles(self):
        assert to_poincare(R)[0] == pytest.approx(0.0, abs=1e-12)
        assert to_poincare(L)[0] == pytest.approx(math.pi, abs=1e-12)

    def test_linear_states_on_equator(self):
        theta, phi = to_poincare(H)
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)
        assert to_poincare(V)[0] == pytest.approx(math.pi / 2.0, abs=1e-12)

    @given(
        theta=st.floats(min_value=0.05, max_value=math.pi - 0.05),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-6),
    )
    @settings(max_examples=50, deadline=None)
    def test_angles_roundtrip(self, theta, phi):
        got_theta, got_phi = to_poincare(poincare_state(theta, phi))
        assert got_theta == pytest.approx(theta, abs=1e-9)
        assert got_phi % (2 * math.pi) == pytest.approx(phi % (2 * math.pi), abs=1e-9)

    def test_reconstruction_up_to_global_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = JonesState(amps / np.linalg.norm(amps))
            theta, phi = to_poincare(state)
            rebuilt = poincare_state(theta, phi)
            assert abs(state.overlap(rebuilt)) == pytest.approx(1.0, abs=1e-9)


class TestPhases:
    def test_geometric_phase_values(self):
        assert geometric_phase(0.0) == 0.0
        assert geometric_phase(math.pi / 2.0) == pytest.approx(-math.pi, abs=1e-15)
        assert geometric_phase(math.pi / 3.0) == pytest.approx(-math.pi / 2.0, abs=1e-15)

    def test_geometric_phase_domain(self):
        with pytest.raises(ConfigError):
            geometric_phase(-0.5)

    def test_dynamic_phase_equator(self):
        p = FaradayParams(rotation_VBd_rad=-math.pi / 3.0)
        assert dynamic_phase(p, math.pi / 2.0) == pytest.approx(p.phase_kn0d_rad, abs=1e-9)

    def test_dynamic_phase_half_turn_pole(self):
        assert dynamic_phase(HALF_TURN, 0.0) == pytest.approx(
            HALF_TURN.phase_kn0d_rad - math.pi, abs=1e-9
        )

    def test_orthogonal_dynamic_phases_sum_to_twice_common(self):
        for theta in (0.1, 0.7, 1.3, 2.9):
            total = dynamic_phase(HALF_TURN, theta) + dynamic_phase(HALF_TURN, math.pi - theta)
            assert total == pytest.approx(2.0 * HALF_TURN.phase_kn0d_rad, abs=1e-8)

    def test_refractive_indices(self):
        p = HALF_TURN
        k = p.wavenumber_rad_per_m
        assert p.index_r == pytest.approx(p.n0 + p.rotation_VBd_rad / (k * p.length_d_m))
        assert p.index_r + p.index_l == pytest.approx(2.0 * p.n0, abs=1e-12)


class TestFaradayPropagate:
    def test_zero_depth_identity(self):
        state = poincare_state(1.0, 0.3)
        out = faraday_propagate(state, 0.0, HALF_TURN)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_full_depth_half_turn_is_global_phase(self):
        state = poincare_state(0.8, 1.1)
        out = faraday_propagate(state, HALF_TURN.length_d_m, HALF_TURN)
        scalar = -cmath.exp(1j * HALF_TURN.phase_kn0d_rad)
        assert np.allclose(out.amplitudes, scalar * state.amplitudes, atol=1e-12)

    def test_quarter_turn_rotates_h_to_v(self):
        # At VB*z = -pi/2 the polarization plane has rotated a quarter turn.
        out = faraday_propagate(H, HALF_TURN.length_d_m / 2.0, HALF_TURN)
        overlap = abs(np.vdot(V.amplitudes, out.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_propagation_composes(self):
        state = poincare_state(2.2, 0.4)
        z1, z2 = 0.003, 0.0075
        stepwise = faraday_propagate(
            faraday_propagate(state, z1, HALF_TURN), z2 - z1, HALF_TURN
        )
        direct = faraday_propagate(state, z2, HALF_TURN)
        assert np.allclose(stepwise.amplitudes, direct.amplitudes, atol=1e-12)

    def test_depth_outside_medium_rejected(self):
        with pytest.raises(ConfigError):
            faraday_propagate(H, HALF_TURN.length_d_m * 2.0, HALF_TURN)


class TestCirculatorUnitary:
    def test_half_turn_is_scalar_matrix(self):
        u = circulator_unitary(HALF_TURN)
        scalar = -cmath.exp(1j * HALF_TURN.phase_kn0d_rad)
        assert np.abs(u - scalar * np.eye(2)).max() < 1e-12

    def test_no_rotation_is_plain_propagation(self):
        p = FaradayParams(rotation_VBd_rad=0.0)
        u = circulator_unitary(p)
        assert np.abs(u - cmath.exp(1j * p.phase_kn0d_rad) * np.eye(2)).max() < 1e-12

    @given(
        wavelength=st.floats(min_value=400.0, max_value=1600.0),
        n0=st.floats(min_value=1.1, max_value=2.5),
        d=st.floats(min_value=1e-4, max_value=0.1),
        vbd=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_unitarity(self, wavelength, n0, d, vbd):
        u = circulator_unitary(FaradayParams(wavelength, n0, d, vbd))
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


class TestAttackModels:
    def test_full_attack_preserves_singlet(self):
        psi = bell_psi_minus()
        out = apply_attack_full(psi, HALF_TURN)
        assert state_fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_full_attack_on_product_state_is_global_phase(self):
        hv = TwoQubitState(np.array([0.0, 1.0, 0.0, 0.0]))
        out = apply_attack_full(hv, HALF_TURN)
        scalar = -cmath.exp(1j * HALF_TURN.phase_kn0d_rad)
        assert np.allclose(out.amplitudes, scalar * hv.amplitudes, atol=1e-12)

    def test_full_attack_preserves_every_state(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = TwoQubitState(amps / np.linalg.norm(amps))
            assert state_fidelity(apply_attack_full(state, HALF_TURN), state) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_full_attack_requires_half_turn(self):
        with pytest.raises(ConfigError):
            apply_attack_full(bell_psi_minus(), FaradayParams(rotation_VBd_rad=-2.0))

    def test_naive_attack_identity_at_pole(self):
        psi = bell_psi_minus()
        out = apply_attack_naive_geometric(psi, 0.0)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_naive_attack_kills_singlet_at_pi_third(self):
        psi = bell_psi_minus()
        out = apply_attack_naive_geometric(psi, math.pi / 3.0)
        assert state_fidelity(out, psi) < 1e-12

    def test_naive_attack_global_sign_at_equator(self):
        psi = bell_psi_minus()
        out = apply_attack_naive_geometric(psi, math.pi / 2.0)
        assert np.allclose(out.amplitudes, -psi.amplitudes, atol=1e-12)
        assert state_fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_naive_fidelity_law(self):
        psi = bell_psi_minus()
        for theta in np.linspace(0.0, math.pi, 61):
            out = apply_attack_naive_geometric(psi, float(theta))
            predicted = math.cos(math.pi * (1.0 - math.cos(theta))) ** 2
            assert state_fidelity(out, psi) == pytest.approx(predicted, abs=1e-10)


class TestPhaseDecomposition:
    def test_total_independent_of_theta(self):
        expected = HALF_TURN.phase_kn0d_rad - math.pi
        rng = np.random.default_rng(9)
        for theta in rng.uniform(0.0, math.pi, 100):
            decomp = phase_decomposition(HALF_TURN, float(theta))
            assert abs(decomp.total_rad - expected) < 1e-10
            assert decomp.total_rad == decomp.geometric_beta_rad + decomp.dynamic_gamma_rad

    def test_orthogonal_state_total_is_two_pi_higher(self):
        theta = 0.9
        direct = phase_decomposition(HALF_TURN, theta)
        companion = phase_decomposition(HALF_TURN, theta, orthogonal=True)
        assert companion.total_rad == pytest.approx(
            HALF_TURN.phase_kn0d_rad + math.pi, abs=1e-10
        )
        assert companion.total_rad - direct.total_rad == pytest.approx(
            2.0 * math.pi, abs=1e-10
        )

    def test_equator_split(self):
        decomp = phase_decomposition(HALF_TURN, math.pi / 2.0)
        assert decomp.geometric_beta_rad == pytest.approx(-math.pi, abs=1e-12)
        assert decomp.dynamic_gamma_rad == pytest.approx(HALF_TURN.phase_kn0d_rad, abs=1e-9)

    @pytest.mark.parametrize(
        "p",
        [HALF_TURN, FaradayParams(1550.0, 1.45, 0.02), FaradayParams(633.0, 2.2, 0.0035)],
        ids=["default", "telecom", "visible"],
    )
    @pytest.mark.parametrize("orthogonal", [False, True], ids=["state", "companion"])
    def test_total_matches_traversal_eigenphase(self, p, orthogonal):
        # The eigenphase <psi|U|psi> of the full-traversal matrix, against the
        # geometric + dynamic split, modulo 2 pi, over a grid of Poincare angles.
        u = circulator_unitary(p)
        for theta in np.linspace(0.0, math.pi, 37):
            state = orthogonal_state(theta) if orthogonal else poincare_state(theta)
            psi = state.rl
            eigenphase = cmath.phase(complex(np.vdot(psi, u @ psi)))
            total = phase_decomposition(p, float(theta), orthogonal).total_rad
            mismatch = (total - eigenphase + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(mismatch) < 1e-8 + abs(total) * 1e-12

    def test_requires_half_turn(self):
        with pytest.raises(ConfigError):
            phase_decomposition(FaradayParams(rotation_VBd_rad=0.0), 1.0)

    def test_orthogonal_state_is_orthogonal(self):
        for theta in (0.2, 1.0, 2.4):
            psi = poincare_state(theta)
            perp = orthogonal_state(theta)
            assert abs(psi.overlap(perp)) < 1e-12

