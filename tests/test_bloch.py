"""Closed-form single-qubit geometry against the generic matrix route."""
import math

import numpy as np
import pytest

import oracles
from eigenrl.environment import SingleQubitSpec, env_single_qubit
from eigenrl.errors import ConfigError
from oracles import AngleDomain, BlochAngles, OverlapAngles
from reference import lone_black_box

HALF_PI = 0.5 * math.pi


def random_spec(rng):
    lam_lo, lam_hi = np.sort(rng.normal(0.0, 1.0, 2))
    return SingleQubitSpec(
        alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
        beta=float(rng.uniform(0.0, math.pi)),
        lambda0=float(lam_lo),
        lambda1=float(lam_hi + 1e-3),
    )


def random_angles(rng):
    # stay a hair away from the poles so the azimuth is well defined
    return BlochAngles(
        theta=float(rng.uniform(0.05, math.pi - 0.05)),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def probe_pair(probe: BlochAngles):
    """The orthonormal pair the overlap angles are defined against."""
    half = 0.5 * probe.theta
    phase = np.exp(1j * probe.phi)
    p0 = np.array([math.cos(half), phase * math.sin(half)])
    p1 = np.array([math.sin(half), -phase * math.cos(half)])
    return p0, p1


def test_wrap_phase_lands_in_principal_interval():
    assert oracles.wrap_phase(0.0) == 0.0
    assert oracles.wrap_phase(2.0 * math.pi) == 0.0
    np.testing.assert_allclose(oracles.wrap_phase(-0.1), 2.0 * math.pi - 0.1)
    rng = np.random.default_rng(7)
    for raw in rng.uniform(-30.0, 30.0, 200):
        out = oracles.wrap_phase(float(raw))
        assert 0.0 <= out < 2.0 * math.pi
        np.testing.assert_allclose(np.exp(1j * out), np.exp(1j * raw), atol=1e-12)


def test_bloch_angles_validation():
    with pytest.raises(ConfigError):
        BlochAngles(theta=-0.1, phi=0.0)
    with pytest.raises(ConfigError):
        BlochAngles(theta=math.pi + 0.1, phi=0.0)
    with pytest.raises(ConfigError):
        BlochAngles(theta=1.0, phi=-0.001)
    with pytest.raises(ConfigError):
        BlochAngles(theta=1.0, phi=2.0 * math.pi)


def test_state_from_angles_equator():
    state = oracles.state_from_angles(BlochAngles(theta=HALF_PI, phi=HALF_PI))
    np.testing.assert_allclose(
        state, np.array([1.0, 1.0j]) / math.sqrt(2.0), atol=1e-15
    )


def test_angles_roundtrip_and_pole_gauge():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ang = random_angles(rng)
        back = oracles.angles_from_state(oracles.state_from_angles(ang))
        np.testing.assert_allclose(back.theta, ang.theta, atol=1e-12)
        np.testing.assert_allclose(back.phi, ang.phi, atol=1e-12)
    # at either pole the azimuth is gauge and must come back as 0
    north = oracles.angles_from_state(np.exp(0.4j) * np.array([1.0, 0.0]))
    assert north.theta == 0.0 and north.phi == 0.0
    south = oracles.angles_from_state(np.array([0.0, np.exp(1.3j)]))
    np.testing.assert_allclose(south.theta, math.pi)
    assert south.phi == 0.0


def test_angles_from_state_rejects_wrong_shape():
    with pytest.raises(ConfigError):
        oracles.angles_from_state(np.zeros(3, dtype=complex))


def test_half_angle_weight_domain():
    with pytest.raises(AngleDomain):
        oracles._half_angle_from_weight(1.0 + 1e-9)
    assert oracles._half_angle_from_weight(1.0 + 1e-13) == 0.0
    np.testing.assert_allclose(
        oracles._half_angle_from_weight(0.25), 2.0 * math.pi / 3.0
    )


class TestEvolvedAngles:
    def test_equatorial_axis_rotation(self):
        # equatorial operator with unit gap: |0> precesses to theta = tau
        spec = SingleQubitSpec(alpha=HALF_PI, beta=0.0, lambda0=-0.5, lambda1=0.5)
        out = oracles.evolved_bloch_angles(spec, 1.0, BlochAngles(0.0, 0.0))
        np.testing.assert_allclose(out.theta, 1.0, atol=1e-14)
        np.testing.assert_allclose(out.phi, HALF_PI, atol=1e-14)

    def test_diagonal_operator_precesses_azimuth_only(self):
        spec = SingleQubitSpec(alpha=0.0, beta=0.0, lambda0=-1.0, lambda1=1.0)
        out = oracles.evolved_bloch_angles(spec, 0.3, BlochAngles(1.1, 0.7))
        np.testing.assert_allclose(out.theta, 1.1, atol=1e-14)
        np.testing.assert_allclose(out.phi, 0.1, atol=1e-13)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ang = random_angles(rng)
            out = oracles.evolved_bloch_angles(random_spec(rng), 0.0, ang)
            np.testing.assert_allclose(out.theta, ang.theta, atol=1e-12)
            np.testing.assert_allclose(
                np.exp(1j * out.phi), np.exp(1j * ang.phi), atol=1e-12
            )

    def test_matches_matrix_propagator(self):
        """The trig route and exp(-i tau O) agree up to global phase."""
        rng = np.random.default_rng(31)
        for _ in range(400):
            spec = random_spec(rng)
            tau = float(rng.uniform(0.1, 3.0))
            ang = random_angles(rng)
            closed = oracles.state_from_angles(
                oracles.evolved_bloch_angles(spec, tau, ang)
            )
            evolved = lone_black_box(env_single_qubit(spec, tau))(
                oracles.state_from_angles(ang)
            )
            np.testing.assert_allclose(
                abs(np.vdot(closed, evolved)), 1.0, atol=1e-11
            )


class TestOverlapAngles:
    def test_pole_probe_reduces_to_plain_angles(self):
        out = oracles.overlap_angles(BlochAngles(0.0, 0.0), BlochAngles(1.1, 0.1))
        np.testing.assert_allclose(out.delta_theta, 1.1, atol=1e-14)
        np.testing.assert_allclose(out.psi0, 0.0, atol=1e-14)
        # <p1|ev> = -e^{i phi} sin(theta/2), so its argument is phi - pi
        np.testing.assert_allclose(out.psi1, 0.1 - math.pi, atol=1e-13)
        assert out.delta_phi == out.psi1 - out.psi0

    def test_identical_states_have_zero_aperture(self):
        ang = BlochAngles(0.9, 4.0)
        out = oracles.overlap_angles(ang, ang)
        np.testing.assert_allclose(out.delta_theta, 0.0, atol=1e-7)
        assert oracles.born_probabilities(out)[0] == pytest.approx(1.0)

    def test_amplitudes_match_inner_products(self):
        """cos/sin of the aperture and both phases against direct <p|ev>."""
        rng = np.random.default_rng(43)
        for _ in range(500):
            probe, evolved = random_angles(rng), random_angles(rng)
            out = oracles.overlap_angles(probe, evolved)
            p0, p1 = probe_pair(probe)
            ev = oracles.state_from_angles(evolved)
            half = 0.5 * out.delta_theta
            np.testing.assert_allclose(
                math.cos(half) * np.exp(1j * out.psi0),
                np.vdot(p0, ev),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                math.sin(half) * np.exp(1j * out.psi1),
                np.vdot(p1, ev),
                atol=1e-12,
            )


def test_born_probabilities_basics():
    rng = np.random.default_rng(59)
    half = OverlapAngles(delta_theta=HALF_PI, delta_phi=0.0, psi0=0.0, psi1=0.0)
    np.testing.assert_allclose(oracles.born_probabilities(half), (0.5, 0.5))
    for _ in range(100):
        probe, evolved = random_angles(rng), random_angles(rng)
        p0_prob, p1_prob = oracles.born_probabilities(
            oracles.overlap_angles(probe, evolved)
        )
        assert 0.0 <= p0_prob <= 1.0
        np.testing.assert_allclose(p0_prob + p1_prob, 1.0, atol=1e-15)
        direct = abs(
            np.vdot(probe_pair(probe)[0], oracles.state_from_angles(evolved))
        )
        np.testing.assert_allclose(p0_prob, direct**2, atol=1e-12)
