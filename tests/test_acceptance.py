"""Acceptance gate: one test per shipped guarantee, bounds pinned.

The statistical checks load the bundled ``configs/`` files verbatim, so a
green run certifies the shipped configurations rather than ad-hoc
parameters.  Every test prints a value-versus-bound line; run with ``-s``
(or read captured output) to see the numbers.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from eigenrl import harness, linalg, protocol
from eigenrl.environment import (
    SingleQubitSpec,
    env_from_matrix,
    env_random,
    env_single_qubit,
)
from eigenrl.cli import main
from eigenrl.protocol import EnsembleState, RewardParams, StoppingRule
from reference import classes, feed, lone_black_box

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIG3_CELLS = {
    (0.6, 1.0): "fig3_r06_nu1",
    (0.6, 1.5): "fig3_r06_nu15",
    (0.6, 2.0): "fig3_r06_nu2",
    (0.9, 1.0): "fig3_r09_nu1",
    (0.9, 1.5): "fig3_r09_nu15",
    (0.9, 2.0): "fig3_r09_nu2",
}


def load_bundled(name):
    return harness.load_config(str(CONFIG_DIR / f"{name}.json"))


def timed_run(config):
    start = time.perf_counter()
    result = harness.run_experiment(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig3():
    """All six (r, nu) cells of the single-qubit sweep, run once."""
    cells = {}
    for key, name in FIG3_CELLS.items():
        config = load_bundled(name)
        assert (config.r, config.nu) == key
        assert config.repetitions == 1000 and config.seed == 7
        cells[key] = timed_run(config)
    return cells


def test_1_single_qubit_random_convergence(fig3):
    result, seconds = fig3[(0.9, 2.0)]
    assert result.ks[-1] == 300
    value = result.fidelity_curves[0, -1]
    print(f"\n[1] F_0(300) = {value:.4f} (>= 0.97), {seconds:.1f}s (< 30s)")
    assert value >= 0.97
    assert seconds < 30.0


def test_2_parameter_sweep_early_fidelity(fig3):
    early = {key: res.fidelity_curves[0, 10] for key, (res, _) in fig3.items()}
    for (r, nu), (res, _) in fig3.items():
        assert res.ks[10] == 10
    total = sum(seconds for _, seconds in fig3.values())
    worst = min(early, key=early.get)
    print(
        f"\n[2] min F_0(10) = {early[worst]:.4f} at (r, nu) = {worst}"
        f" (>= 0.88), sweep total {total:.1f}s (< 120s)"
    )
    for key, value in sorted(early.items()):
        assert value >= 0.88, f"F_0(10) = {value:.4f} at {key}"
    assert total < 120.0


def test_3_search_width_collapse(fig3):
    result, seconds = fig3[(0.6, 1.0)]
    value = result.search_curve[70]
    print(f"\n[3] W(70) = {value:.5f} (<= 0.02), {seconds:.1f}s (< 30s)")
    assert result.ks[70] == 70
    assert value <= 0.02
    assert seconds < 30.0


def test_4_spin_x_environment():
    config = load_bundled("fig5_sx")
    assert config.env_kind == "spin-x"
    assert config.repetitions == 1000 and config.seed == 7
    result, seconds = timed_run(config)
    assert result.ks[-1] == 400
    value = result.fidelity_curves[0, -1]
    print(f"\n[4] spin-x F_0(400) = {value:.4f} (>= 0.97), {seconds:.1f}s (< 30s)")
    assert value >= 0.97
    assert seconds < 30.0


def test_5_two_qubit_random_operator():
    config = load_bundled("fig6_random2q")
    assert config.dim == 4
    assert config.stopping.budgets == (4000, 2500, 2000)
    assert sum(config.stopping.budgets) == 8500
    assert config.repetitions == 1000 and config.seed == 7
    result, seconds = timed_run(config)
    assert result.ks[-1] == 8500
    value = result.fidelity_curves[:, -1].min()
    print(f"\n[5] min_j F_j(8500) = {value:.4f} (>= 0.85), {seconds:.1f}s (< 600s)")
    assert value >= 0.85
    assert seconds < 600.0


def test_6_bell_operator():
    config = load_bundled("fig7_bell")
    assert config.env_kind == "bell"
    assert config.stopping.budgets == (500, 300, 200)
    assert sum(config.stopping.budgets) == 1000
    assert config.repetitions == 1000 and config.seed == 7
    result, seconds = timed_run(config)
    assert result.ks[-1] == 1000
    value = result.fidelity_curves[:, -1].min()
    print(f"\n[6] Bell min_j F_j(1000) = {value:.4f} (>= 0.98), {seconds:.1f}s (< 120s)")
    assert value >= 0.98
    assert seconds < 120.0


def test_7_exact_property_suite():
    start = time.perf_counter()

    # (a) search-range ledger: w == w1 * r^{n_r} * p^{n_p} to 1e-9 relative
    # over 1e5 random reward/neutral/punish sequences.  The scalar cumprod
    # reproduces the agent's multiply order bit-for-bit; a 200-sequence
    # subsample is driven through the real update to anchor that claim.
    rng = np.random.default_rng(2024)
    worst_ledger = 0.0
    param_sets = [(0.9, 2.0), (0.6, 1.0), (0.75, 1.5), (0.9, 1.0), (0.6, 2.0)]
    for r, nu in param_sets:
        params = RewardParams(r=r, nu=nu, w1=1.0)
        outcomes = rng.integers(0, 3, size=(40, 20_000))  # stage 1 of dim 3
        lengths = rng.integers(5, 41, size=20_000)
        factors = np.choose(outcomes, [1.0, params.r, params.p])
        factors[np.arange(40)[:, None] >= lengths[None, :]] = 1.0
        walked = np.cumprod(factors, axis=0)[-1]
        n_r = ((outcomes == 1) & (np.arange(40)[:, None] < lengths)).sum(axis=0)
        n_p = ((outcomes == 2) & (np.arange(40)[:, None] < lengths)).sum(axis=0)
        closed = params.w1 * params.r**n_r * params.p**n_p
        worst_ledger = max(worst_ledger, np.abs(walked / closed - 1.0).max())
        for column in range(0, 20_000, 100):  # real-update anchor
            agent = EnsembleState(3, params, StoppingRule(), [column])
            agent.advance_stage(np.array([0]))
            seen = protocol.Decisions()
            for m in outcomes[: lengths[column], column]:
                feed(agent, int(m), seen)
            kinds = classes(seen)
            assert agent.w[0] == walked[column]
            assert (kinds.count(protocol.REWARD), kinds.count(protocol.PUNISH)) == (
                n_r[column], n_p[column])
    print(f"\n[7a] ledger identity worst rel err = {worst_ledger:.2e} (<= 1e-9)")
    assert worst_ledger <= 1e-9

    # (b) accumulated basis stays unitary through 1e5 updates, all of them
    # in stage 0
    env = env_random(4, 1.0, [3])
    black_box = harness._black_box(env)
    rule = StoppingRule(kind="fixed-budget", budgets=(100_000, 1, 1))
    agent = EnsembleState(4, RewardParams(r=0.9, nu=2.0), rule, [3])
    punished = 0
    with np.errstate(over="ignore"):  # an uncapped w may run away, as in run_stages
        while agent.stage[0] == 0:
            punished += int(agent.advance(black_box).punished.sum())
    assert agent.calls[0] == 100_000 and punished > 0
    basis = agent.bases[0]
    defect = np.abs(basis.conj().T @ basis - np.eye(4)).max()
    print(f"[7b] unitarity defect after 1e5 iterations = {defect:.2e} (<= 1e-9)")
    assert defect <= 1e-9

    # (c) closed-form single-qubit route vs the matrix route, 1e4 instances
    rng = np.random.default_rng(77)
    worst_state, worst_born = 0.0, 0.0
    for _ in range(10_000):
        spec = SingleQubitSpec(
            alpha=rng.uniform(0.0, 2.0 * math.pi),
            beta=rng.uniform(0.0, math.pi),
            lambda0=rng.normal(),
            lambda1=rng.normal(),
        )
        tau = rng.uniform(0.2, 2.0)
        probe = oracles.BlochAngles(
            theta=rng.uniform(0.0, math.pi), phi=rng.uniform(0.0, 2.0 * math.pi)
        )
        evolved = lone_black_box(env_single_qubit(spec, tau))(oracles.state_from_angles(probe))
        closed = oracles.evolved_bloch_angles(spec, tau, probe)
        overlap = abs(np.vdot(oracles.state_from_angles(closed), evolved))
        worst_state = max(worst_state, abs(1.0 - overlap))
        q0, _ = oracles.born_probabilities(oracles.overlap_angles(probe, closed))
        q0_matrix = abs(np.vdot(oracles.state_from_angles(probe), evolved)) ** 2
        worst_born = max(worst_born, abs(q0 - q0_matrix))
    print(f"[7c] dual-route state gap = {worst_state:.2e}, Born gap = {worst_born:.2e} (<= 1e-9)")
    assert worst_state <= 1e-9
    assert worst_born <= 1e-9

    # (d) eigendecomposition reconstructs the operator
    rng = np.random.default_rng(5)
    worst_recon = 0.0
    for dim in (2, 3, 4, 5, 6):
        for _ in range(40):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2.0
            system = linalg.eig_hermitian(h[None])
            v, lam = system.eigenvectors[0], system.eigenvalues[0]
            gap = np.abs(v @ np.diag(lam) @ v.conj().T - h).max()
            worst_recon = max(worst_recon, gap / np.abs(h).max())
    print(f"[7d] eig reconstruction worst rel gap = {worst_recon:.2e} (<= 1e-10)")
    assert worst_recon <= 1e-10

    # (e) diagonal environment: every outcome rewards, so w walks down
    # r^k with the basis frozen at the identity and F_j pinned to 1
    env = env_from_matrix(np.diag([-1.0, 0.4, 1.1]), tau=1.0)
    black_box = harness._black_box(env)
    params = RewardParams(r=0.9, nu=2.0)
    agent = EnsembleState(3, params, StoppingRule(kind="fixed-budget", budgets=(200, 1)), [8])
    expected = params.w1
    while agent.stage[0] == 0:
        rec = agent.advance(black_box)
        walked = rec.w_after[0, :rec.length[0]]
        for w in walked.tolist():
            expected *= params.r
            assert w == expected  # after iteration k, r^k: the next one uses it
        seen = protocol.Decisions()
        seen.add_segment(rec)
        assert classes(seen) == [protocol.REWARD] * len(walked)
    assert agent.calls[0] == 200
    np.testing.assert_array_equal(agent.bases[0], np.eye(3, dtype=complex))
    amps = np.abs(env.eigensystem.eigenvectors[0].conj().T @ agent.bases[0])
    np.testing.assert_array_equal(amps.max(axis=0), np.ones(3))
    print("[7e] diagonal-environment shortcut: w = r^(k-1) exact, F_j = 1 exact")

    seconds = time.perf_counter() - start
    print(f"[7] property suite ran in {seconds:.1f}s (< 60s)")
    assert seconds < 60.0


def test_8_determinism_and_replay(tmp_path):
    config = load_bundled("fig3_r09_nu2")
    first = harness.run_experiment(config, trace=True)
    second, _ = timed_run(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_results(first, str(a), fmt="csv")
    harness.write_results(second, str(b), fmt="csv")
    identical = a.read_bytes() == b.read_bytes()
    trace = tmp_path / "rep0.trace"
    first.trace.write(str(trace))
    replay_ok = main(["replay", "--trace", str(trace)]) == 0
    print(f"\n[8] byte-identical CSV: {identical}, trace replay hash match: {replay_ok}")
    assert identical
    assert replay_ok
