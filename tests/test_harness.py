"""Experiment driver: config schema, aggregation, result files."""
import json
import logging
import math
import re
import time
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from eigenrl import harness, linalg, protocol
from eigenrl.environment import env_from_matrix, env_random, env_spin_x, save_operator
from eigenrl.errors import ConfigError, EigenrlError
from eigenrl.harness import ExperimentConfig, config_from_dict
from eigenrl.protocol import StoppingRule
from reference import (
    AgentState,
    classes,
    column_bytes,
    lone_black_box,
    lone_environment,
    reference_experiment,
)
from results import read_results

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DIAG = np.diag([-1.0, 1.0])

#: the message of the rule that a resampled run may not use the paper's mode
PAPER_MODE_SHARES = "^fidelity_mode 'paper' shares one environment across repetitions; "


def small_config(**overrides):
    base = dict(
        dim=2,
        env_kind="random",
        r=0.9,
        nu=2.0,
        repetitions=25,
        seed=99,
        stopping=StoppingRule(kind="fixed-budget", budgets=(80,)),
        env_seed=7,
        w_cap=1.0,
        fidelity_mode="per-rep",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_same_result(got, want):
    """Two results agree bit for bit."""
    np.testing.assert_array_equal(got.ks, want.ks)
    np.testing.assert_array_equal(got.stages, want.stages)
    assert got.search_curve.tobytes() == want.search_curve.tobytes()
    assert got.fidelity_curves.tobytes() == want.fidelity_curves.tobytes()
    assert got.per_repetition_final.tobytes() == want.per_repetition_final.tobytes()
    assert got.diag_residual == want.diag_residual
    assert got.metadata == want.metadata


def test_the_largest_counts_a_config_takes_change_no_bit():
    """A threshold cap of ``protocol.MAX_COUNT``, never reached, gives the
    bits of a smaller unreached cap, and a stride of ``MAX_COUNT`` records
    k = 0 alone: the int64 stage ends and record points do not wrap.  With a
    cap of 2**63 - 1 the stage ends wrapped, and this run crashed."""
    def run(cap, every=1):
        return harness.run_experiment(small_config(
            dim=4, repetitions=300, seed=5, record_every=every,
            stopping=StoppingRule(kind="threshold", w_min=1e-2, max_iterations=cap)))

    got, want = run(protocol.MAX_COUNT), run(10**6)
    assert got.metadata["longest_run"] == want.metadata["longest_run"] < 10**6
    assert_same_result(got, replace(want, metadata=got.metadata))
    assert run(10**6, protocol.MAX_COUNT).ks.tolist() == [0]


def raw_dict(**overrides):
    base = {
        "dim": 2,
        "env_kind": "random",
        "r": 0.9,
        "nu": 2.0,
        "repetitions": 10,
        "seed": 3,
        "stopping": {"kind": "fixed-budget", "budgets": [40]},
    }
    base.update(overrides)
    return base


class TestConfigSchema:
    def test_minimal_dict_parses_with_defaults(self):
        cfg = config_from_dict(raw_dict())
        assert cfg.tau == 1.0
        assert cfg.w1 == 1.0
        assert math.isinf(cfg.w_cap)
        assert cfg.fidelity_mode == "paper"
        assert cfg.record_every == 1
        assert not cfg.resample_env_per_repetition

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(raw_dict(colour="red"))
        bad = raw_dict()
        del bad["seed"]
        with pytest.raises(ConfigError, match="missing config keys"):
            config_from_dict(bad)

    def test_type_checks_reject_bools_and_strings(self):
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(dim=True))
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(r="0.9"))
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(resample_env_per_repetition=1))
        with pytest.raises(ConfigError, match="operator_file must be a path string, got 7"):
            config_from_dict(raw_dict(env_kind="file", operator_file=7))

    def test_stopping_block_is_strict(self):
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(stopping={"kind": "sometimes"}))
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(stopping={"kind": "fixed-budget"}))
        with pytest.raises(ConfigError):
            config_from_dict(
                raw_dict(stopping={"kind": "fixed-budget", "budgets": [40], "extra": 1})
            )
        with pytest.raises(ConfigError):
            config_from_dict(
                raw_dict(stopping={"kind": "fixed-budget", "budgets": [True]})
            )
        cfg = config_from_dict(
            raw_dict(stopping={"kind": "threshold", "w_min": 0.01})
        )
        assert cfg.stopping.w_min == 0.01

    def test_budget_count_must_cover_stages(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                raw_dict(dim=4, stopping={"kind": "fixed-budget", "budgets": [40]})
            )

    def test_paper_mode_rejects_resampling(self):
        with pytest.raises(ConfigError, match=PAPER_MODE_SHARES):
            config_from_dict(raw_dict(resample_env_per_repetition=True))
        cfg = config_from_dict(
            raw_dict(resample_env_per_repetition=True, fidelity_mode="per-rep")
        )
        assert cfg.resample_env_per_repetition

    def test_resampling_needs_a_random_environment(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                raw_dict(
                    env_kind="spin-x",
                    resample_env_per_repetition=True,
                    fidelity_mode="per-rep",
                )
            )

    def test_kind_specific_blocks(self):
        with pytest.raises(ConfigError, match=r"env_kind must be one of \(.*\), got 'moon'"):
            config_from_dict(raw_dict(env_kind="moon"))
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(env_kind="single-qubit-spec"))
        block = {"alpha": 1.0, "beta": 0.5, "lambda0": -1.0, "lambda1": 1.0}
        with pytest.raises(ConfigError,
                           match="single_qubit only applies to env_kind 'single-qubit-spec'"):
            config_from_dict(raw_dict(single_qubit=block))
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(env_kind="file"))
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(operator_file="op.json"))
        with pytest.raises(ConfigError):
            config_from_dict(
                raw_dict(single_qubit={"alpha": 0.0, "beta": 0.0, "lambda0": 0.0})
            )
        cfg = config_from_dict(
            raw_dict(
                env_kind="single-qubit-spec",
                single_qubit={
                    "alpha": 1.0,
                    "beta": 0.5,
                    "lambda0": -1.0,
                    "lambda1": 1.0,
                },
            )
        )
        assert cfg.single_qubit.alpha == 1.0

    def test_null_w_cap_means_uncapped(self):
        cfg = config_from_dict(raw_dict(w_cap=None))
        assert math.isinf(cfg.w_cap)
        cfg = config_from_dict(raw_dict(w_cap=1.0))
        assert cfg.w_cap == 1.0

    def test_dict_roundtrip(self):
        for overrides in (
            {},
            {"w_cap": 1.0, "fidelity_mode": "per-rep", "record_every": 5},
            {"stopping": {"kind": "threshold", "w_min": 0.01, "max_iterations": 500}},
            {
                "env_kind": "single-qubit-spec",
                "single_qubit": {
                    "alpha": 0.3,
                    "beta": 1.1,
                    "lambda0": -0.7,
                    "lambda1": 0.9,
                },
            },
        ):
            cfg = config_from_dict(raw_dict(**overrides))
            echoed = json.loads(json.dumps(harness.config_to_dict(cfg)))
            assert config_from_dict(echoed) == cfg

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_configs_echo_their_file(self, path):
        """The results metadata echoes a bundled config as written, each
        value with its JSON type, plus the one default it leaves out."""
        raw = json.loads(path.read_text())
        echoed = harness.config_to_dict(harness.load_config(str(path)))
        assert isinstance(echoed["stopping"]["budgets"], list)
        assert json.dumps(echoed, sort_keys=True) == json.dumps(
            {"env_seed": 0, **raw}, sort_keys=True
        )

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_config(str(tmp_path / "nope.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigError):
            harness.load_config(str(broken))
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            harness.load_config(str(listy))


class TestBuildEnvironment:
    def test_named_kinds_and_dim_guard(self):
        cfg = small_config(env_kind="spin-x", env_seed=0)
        env = harness.build_environment(cfg)
        np.testing.assert_allclose(env.operators[0], [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ConfigError):
            harness.build_environment(small_config(dim=4, env_kind="spin-x",
                                                   stopping=StoppingRule(
                                                       kind="fixed-budget",
                                                       budgets=(10, 10, 10))))

    def test_shared_environment_ignores_rep_index(self, monkeypatch):
        """Every repetition of an unresampled run meets build_environment(config)."""
        cfg = small_config()
        built = []
        real_black_box = harness._black_box
        monkeypatch.setattr(
            harness, "_black_box", lambda env: built.append(env) or real_black_box(env)
        )
        harness.run_experiment(cfg)
        (env,) = built
        assert env.unitaries.shape == (1, cfg.dim, cfg.dim)
        assert env.unitaries.tobytes() == harness.build_environment(cfg).unitaries.tobytes()

    def test_resampled_environments_differ_but_reproduce(self):
        cfg = small_config(resample_env_per_repetition=True)
        a0, a1, again = (lone_environment(cfg, i) for i in (0, 1, 0))
        assert not np.allclose(a0.operators[0], a1.operators[0])
        np.testing.assert_array_equal(a0.operators[0], again.operators[0])

    def test_run_builds_resampled_environments_together_with_the_lone_bits(
        self, monkeypatch
    ):
        cfg = small_config(dim=5, repetitions=6, resample_env_per_repetition=True,
                           stopping=StoppingRule(kind="fixed-budget", budgets=(20,) * 4))
        shapes, built = [], []
        real_eig, real_black_box = linalg.eig_hermitian, harness._black_box
        real_spread = linalg.spectral_spread
        monkeypatch.setattr(
            linalg, "eig_hermitian", lambda h: shapes.append(("eig", np.shape(h))) or real_eig(h)
        )
        monkeypatch.setattr(
            linalg, "spectral_spread",
            lambda h: shapes.append(("spread", np.shape(h))) or real_spread(h)
        )
        monkeypatch.setattr(
            harness, "_black_box", lambda env: built.append(env) or real_black_box(env)
        )
        harness.run_experiment(cfg)
        # one stacked eigenvalue-only pass for the spreads, one stacked
        # eigensystem call for the rescaled operators
        assert shapes == [("spread", (6, 5, 5)), ("eig", (6, 5, 5))]
        monkeypatch.setattr(linalg, "eig_hermitian", real_eig)
        monkeypatch.setattr(linalg, "spectral_spread", real_spread)
        (env,) = built
        ours = env.eigensystem
        assert env.operators.shape == env.unitaries.shape == (cfg.repetitions, 5, 5)
        assert ours.eigenvalues.shape == (cfg.repetitions, 5)
        assert ours.eigenvectors.shape == (cfg.repetitions, 5, 5)
        for i in range(cfg.repetitions):
            lone = lone_environment(cfg, i)
            theirs = lone.eigensystem
            assert env.operators[i].tobytes() == lone.operators[0].tobytes()
            assert env.unitaries[i].tobytes() == lone.unitaries[0].tobytes()
            assert ours.eigenvalues[i].tobytes() == theirs.eigenvalues[0].tobytes()
            assert ours.eigenvectors[i].tobytes() == theirs.eigenvectors[0].tobytes()

    def test_file_kind_tau_must_match_the_file(self, tmp_path):
        """A ``file`` run takes its ``tau`` from the operator file, and a
        config ``tau`` that differs from it is refused, naming both."""
        path = tmp_path / "op.json"
        save_operator(str(path), np.diag([-1.0, 1.0]).astype(complex), tau=9.9)
        cfg = small_config(env_kind="file", operator_file=str(path), tau=0.5)
        with pytest.raises(ConfigError, match=r"config tau 0\.5 differs from the tau 9\.9"):
            harness.build_environment(cfg)
        save_operator(str(path), np.diag([-1.0, 1.0]).astype(complex), tau=0.5)
        env = harness.build_environment(cfg)
        np.testing.assert_allclose(
            env.unitaries[0], np.diag(np.exp([0.5j, -0.5j])), atol=1e-12
        )


def two_level_rotation(a, b, dim, phi):
    """The two-level rotation of the angles ``phi`` (phi_x, phi_y, phi_z) on
    basis states a < b, as a dim x dim unitary."""
    u = np.eye(dim, dtype=complex)
    u[np.ix_((a, b), (a, b))] = linalg.rotation_blocks(np.array(phi, dtype=float)[:, None])[0]
    return u


def fold_at_start(bases, env, mode, w1=1.0):
    """The fold of hand-set member bases at k = 0, and the fold itself."""
    n, d = bases.shape[:2]
    config = small_config(
        dim=d,
        repetitions=n,
        w1=w1,
        fidelity_mode=mode,
        resample_env_per_repetition=len(env.operators) > 1,
        stopping=StoppingRule(kind="fixed-budget", budgets=(1,) * (d - 1)),
    )
    ensemble = protocol.EnsembleState(d, config.params, config.stopping, list(range(n)))
    ensemble.bases[:] = bases
    return harness._Fold(config, env, ensemble), ensemble


def start_fidelity(bases, env, mode):
    fold, ensemble = fold_at_start(np.asarray(bases, dtype=complex), env, mode)
    return fold.finalize(ensemble, env).fidelity_curves[:, 0]


class TestMeanFidelity:
    """The one fidelity reduction, the streaming fold, on hand-set bases."""

    def setup_method(self):
        self.diag_env = env_from_matrix(np.diag([-1.0, 1.0]), 1.0)  # eigenbasis = I

    def test_identity_on_diagonal_environment(self):
        mats = np.stack([np.eye(2)] * 4)
        for mode in ("paper", "per-rep"):
            np.testing.assert_allclose(start_fidelity(mats, self.diag_env, mode), 1.0)

    def test_single_rotation_takes_best_match(self):
        theta = 0.8
        rot = two_level_rotation(0, 1, 2, (theta, 0.0, 0.0))
        expected = max(abs(math.cos(theta / 2)), abs(math.sin(theta / 2)))
        for mode in ("paper", "per-rep"):
            value = start_fidelity([rot], self.diag_env, mode)[0]
            assert value == pytest.approx(expected)

    def test_mode_placement_differs_on_split_ensembles(self):
        # half the runs landed on each eigenvector: per-rep credits both,
        # the shared-index mean cannot
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mats = [np.eye(2), swap]
        assert start_fidelity(mats, self.diag_env, "per-rep")[0] == pytest.approx(1.0)
        assert start_fidelity(mats, self.diag_env, "paper")[0] == pytest.approx(0.5)

    def test_paper_mode_requires_shared_eigensystem(self):
        with pytest.raises(ConfigError, match=PAPER_MODE_SHARES):
            small_config(fidelity_mode="paper", resample_env_per_repetition=True)
        env = env_from_matrix(np.stack([self.diag_env.operators[0],
                                        env_spin_x(1.0).operators[0]]), 1.0)
        value = start_fidelity([np.eye(2)] * 2, env, "per-rep")[0]
        assert value == pytest.approx((1.0 + 1.0 / math.sqrt(2.0)) / 2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(fidelity_mode="both"))
        with pytest.raises(ConfigError, match=PAPER_MODE_SHARES):
            config_from_dict(raw_dict(resample_env_per_repetition=True))

    def test_random_products_stay_in_bounds(self):
        rng = np.random.default_rng(6)
        mats = np.tile(np.eye(4, dtype=complex), (50, 1, 1))
        for mat in mats:
            for _ in range(6):
                a, b = sorted(rng.choice(4, size=2, replace=False))
                phi = rng.uniform(-math.pi, math.pi, 3)
                mat[:] = mat @ two_level_rotation(int(a), int(b), 4, phi)
        env = env_random(4, 1.0, [2])
        for mode in ("per-rep", "paper"):
            fold, ensemble = fold_at_start(mats, env, mode)
            result = fold.finalize(ensemble, env)
            amps = result.per_repetition_final  # [i, l, j] = |<l_E|D_i|j>|
            best = amps.max(axis=1)
            assert np.all((best > 0.0) & (best <= 1.0))
            if mode == "per-rep":
                expected = best.mean(axis=0)
            else:
                expected = amps.mean(axis=0).max(axis=0)
            np.testing.assert_allclose(result.fidelity_curves[:, 0], expected)


def test_mean_search_range():
    """W(k) is the arithmetic mean of the members' search ranges."""
    fold, ensemble = fold_at_start(np.stack([np.eye(2)] * 2), env_spin_x(1.0),
                                   "per-rep", w1=0.7)
    members = np.arange(2)
    rec = protocol.EnsembleRecord(members=members, k=np.ones(2, int), length=np.ones(2, int),
                                  stage=np.zeros(2, int), u=np.zeros((2, 1)),
                                  w_after=np.array([[0.9], [1.1]]),
                                  cumulative=np.ones((2, 1)),
                                  punished=np.zeros(2, bool), angles=np.empty((3, 0)),
                                  moved=np.zeros(2, bool), before=np.empty((0, 2, 2)))
    ensemble.calls[:] = 1  # both members ran iteration 1
    fold.observe(ensemble, rec)
    search = fold.finalize(ensemble, env_spin_x(1.0)).search_curve
    assert search[0] == 0.7
    assert search[1] == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        small_config(repetitions=0)


class TestDiagResidual:
    def test_exact_eigenbasis_nulls_the_residual(self):
        env = env_random(3, 1.0, [44])
        exact = env.eigensystem.eigenvectors[0]
        assert linalg.diag_residual(exact[None], env.operators)[0] < 1e-9

    def test_identity_on_diagonal_operator_is_zero(self):
        assert linalg.diag_residual(np.eye(2)[None], DIAG[None]).tolist() == [0.0]

    def test_hadamard_fully_scrambles_a_diagonal_operator(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        value = linalg.diag_residual(hadamard[None], DIAG[None])[0]
        assert value == pytest.approx(1.0)

    def test_dim_mismatch_and_agent_wrapper(self):
        mismatched = [
            (np.eye(3)[None], DIAG[None]),  # another dim
            (np.eye(2), DIAG),  # not stacks
            (np.ones((1, 2, 3)), np.ones((1, 2, 3))),  # not square
            (np.stack([np.eye(2)] * 3), np.stack([DIAG] * 2)),  # 3 bases, 2 operators
        ]
        for bases, operators in mismatched:
            with pytest.raises(EigenrlError, match=r"^bases \(.*\) do not match operators ") as exc:
                linalg.diag_residual(bases, operators)
            assert exc.type is EigenrlError  # a runtime failure, not bad input
        # a one-repetition result reports the residual of its lone agent
        cfg = small_config(repetitions=1)
        env = harness.build_environment(cfg)
        agent = AgentState(2, cfg.params, reference.derive_seed(cfg.seed, 0))
        reference.run_agent(agent, lone_black_box(env), cfg.stopping)
        assert harness.run_experiment(cfg).diag_residual == reference.diag_residual(
            agent.basis, env.operators[0]
        )

    @pytest.mark.parametrize("dim", [2, 3, 4, 16, 64])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-member"])
    def test_stacked_residuals_have_the_lone_bits(self, dim, shared):
        rng = np.random.default_rng(dim)
        n = 7

        def normal():
            return rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))

        bases = np.linalg.qr(normal())[0]
        a = normal()[:1] if shared else normal()
        operators = a + a.conj().transpose(0, 2, 1)
        got = linalg.diag_residual(bases, operators)
        for i in range(n):
            want = reference.diag_residual(bases[i], operators[0 if shared else i])
            assert got[i].tobytes() == np.float64(want).tobytes()
        zero = np.zeros((1, dim, dim), dtype=complex)
        assert linalg.diag_residual(bases, zero).tolist() == [0.0] * n
        assert reference.diag_residual(bases[0], zero[0]) == 0.0


class TestRunExperiment:
    def test_diagonal_environment_runs_the_exact_shortcut(self, tmp_path):
        """Start on an eigenbasis: F sticks to 1 and w decays as r^k."""
        path = tmp_path / "diag.json"
        save_operator(str(path), np.diag([-1.0, 1.0]).astype(complex), tau=1.0)
        cfg = small_config(
            env_kind="file",
            operator_file=str(path),
            env_seed=0,
            repetitions=10,
            w_cap=math.inf,
            stopping=StoppingRule(kind="fixed-budget", budgets=(60,)),
        )
        res = harness.run_experiment(cfg)
        assert res.fidelity_curves.shape == (2, 61)
        np.testing.assert_array_equal(res.fidelity_curves, 1.0)
        np.testing.assert_allclose(
            res.search_curve, 0.9 ** np.arange(61), rtol=1e-12
        )
        assert res.diag_residual == 0.0
        assert res.fidelity_curves[0, res.ks == 1][0] == 1.0

    def test_curves_and_finals_are_consistent(self):
        cfg = small_config()
        res = harness.run_experiment(cfg)
        assert res.ks[0] == 0 and res.ks[-1] == 80
        assert res.search_curve[0] == 1.0
        assert np.all(res.fidelity_curves >= 0.0)
        assert np.all(res.fidelity_curves <= 1.0)
        assert np.all(res.search_curve > 0.0)
        assert res.per_repetition_final.shape == (25, 2, 2)
        # the curve tail must equal the reduction of the per-rep finals
        per_rep = res.per_repetition_final.max(axis=1).mean(axis=0)
        np.testing.assert_array_equal(res.fidelity_curves[:, -1], per_rep)

    def test_paper_mode_places_the_max_outside(self):
        cfg = small_config(fidelity_mode="paper")
        res = harness.run_experiment(cfg)
        expected = res.per_repetition_final.mean(axis=0).max(axis=0)
        np.testing.assert_array_equal(res.fidelity_curves[:, -1], expected)

    def test_record_every_thins_the_grid(self):
        cfg = small_config(record_every=20)
        res = harness.run_experiment(cfg)
        np.testing.assert_array_equal(res.ks, [0, 20, 40, 60, 80])

    def test_stage_column_follows_the_budget_schedule(self):
        cfg = small_config(
            dim=4,
            env_seed=2,
            repetitions=5,
            stopping=StoppingRule(kind="fixed-budget", budgets=(10, 10, 10)),
        )
        res = harness.run_experiment(cfg)
        assert list(res.stages[:11]) == [0] * 11
        assert list(res.stages[11:21]) == [1] * 10
        assert list(res.stages[21:]) == [2] * 10

    def test_threshold_runs_carry_short_reps_forward(self):
        cfg = small_config(
            repetitions=16,
            stopping=StoppingRule(kind="threshold", w_min=5e-2, max_iterations=4000),
        )
        res = harness.run_experiment(cfg)
        assert np.all(np.diff(res.stages) >= 0)
        assert np.all(res.search_curve > 0.0)
        assert np.all(res.fidelity_curves <= 1.0)
        # by the last grid point every repetition has converged, so the
        # carried search ranges all sit below the stopping threshold
        assert res.search_curve[-1] < 5e-2

    @pytest.mark.parametrize("fidelity_mode", ["paper", "per-rep"])
    def test_a_point_after_every_stop_reduces_the_final_bases(self, fidelity_mode):
        """A stopped repetition adds its final basis to every later point, in
        both modes, however long ago the fold last recorded it running."""
        cfg = small_config(dim=3, repetitions=12, fidelity_mode=fidelity_mode,
                           stopping=StoppingRule(kind="threshold", w_min=0.2, max_iterations=30))
        longest = harness.run_experiment(cfg).metadata["longest_run"]
        # the stride changes no decision, and puts the last point after every stop
        res = harness.run_experiment(replace(cfg, record_every=longest))
        np.testing.assert_array_equal(res.ks, [0, longest])
        finals = res.per_repetition_final  # [i, l, j]
        if fidelity_mode == "paper":
            want = finals.mean(axis=0).max(axis=0)
        else:
            want = finals.max(axis=1).mean(axis=0)
        np.testing.assert_allclose(res.fidelity_curves[:, -1], want, rtol=1e-12)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(fidelity_mode="paper", repetitions=12),
            dict(  # one member stops on its cap, after a punish, before the end
                dim=3,
                record_every=7,
                stopping=StoppingRule(kind="threshold", w_min=0.2, max_iterations=30),
            ),
            dict(
                dim=3,
                resample_env_per_repetition=True,
                stopping=StoppingRule(kind="threshold", w_min=5e-2, max_iterations=600),
            ),
            dict(
                dim=4,
                resample_env_per_repetition=True,
                record_every=7,
                stopping=StoppingRule(kind="fixed-budget", budgets=(30, 20, 10)),
            ),
            dict(  # one member stops on its cap, after a punish, before the end
                dim=3,
                fidelity_mode="paper",
                record_every=7,
                w_cap=math.inf,
                stopping=StoppingRule(kind="threshold", w_min=0.3, max_iterations=25),
            ),
            dict(
                repetitions=3,
                record_every=500,
                stopping=StoppingRule(kind="fixed-budget", budgets=(10_050,)),
            ),
            dict(  # budgets far shorter than a window
                dim=4,
                repetitions=12,
                record_every=2,
                stopping=StoppingRule(kind="fixed-budget", budgets=(3, 1, 2)),
            ),
            dict(  # threshold stages closing inside a window
                dim=3,
                repetitions=8,
                fidelity_mode="paper",
                stopping=StoppingRule(kind="threshold", w_min=0.4, max_iterations=90),
            ),
            dict(repetitions=1, dim=3, stopping=StoppingRule(kind="fixed-budget", budgets=(70, 40))),
            dict(
                repetitions=1,
                record_every=4,
                stopping=StoppingRule(kind="threshold", w_min=0.05, max_iterations=300),
            ),
            # the largest dim, 63 stages of 5 iterations each
            dict(repetitions=1, dim=64, env_seed=3,
                 stopping=StoppingRule(kind="fixed-budget", budgets=(5,) * 63)),
        ],
        ids=[
            "fixed-shared-paper-1",
            "threshold-shared-perrep-7",
            "threshold-resampled-perrep-1",
            "fixed-resampled-perrep-7",
            "threshold-shared-paper-7",
            "fixed-crosses-gram-schmidt",
            "fixed-shorter-than-window",
            "threshold-closes-mid-window-paper",
            "one-member-fixed",
            "one-member-threshold-4",
            "one-member-dim-64",
        ],
    )
    def test_ensemble_matches_agent_runs(self, overrides):
        """The engine reproduces lone agents bit for bit, curves and trace,
        however its rounds group their iterations."""
        cfg = small_config(**{"repetitions": 10, **overrides})
        want, agents = reference_experiment(cfg)
        got = harness.run_experiment(cfg, trace=True)
        assert_same_result(got, want)
        assert column_bytes(got.trace.decisions) == column_bytes(want.trace.decisions)
        assert got.trace.final_basis.tobytes() == want.trace.final_basis.tobytes()

        unitaries = np.stack([lone_environment(cfg, i).unitaries[0]
                              for i in range(cfg.repetitions)])
        ensemble = protocol.EnsembleState(
            cfg.dim,
            cfg.params,
            cfg.stopping,
            [reference.derive_seed(cfg.seed, i) for i in range(cfg.repetitions)],
        )
        returned = protocol.run_stages(
            ensemble,
            lambda members, probes: (unitaries[members] @ probes[:, :, None])[:, :, 0],
        )
        assert returned is ensemble
        assert ensemble.k - 1 == sum(agent.k - 1 for agent in agents)
        for i, agent in enumerate(agents):
            assert protocol.basis_hash(ensemble.bases[i]) == protocol.basis_hash(
                agent.basis
            )
            assert ensemble.calls[i] == agent.k - 1
            assert ensemble.stage[i] == agent.stage
            assert ensemble.w[i] == agent.w

    @pytest.mark.parametrize("fidelity_mode", ["paper", "per-rep"])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(stopping=StoppingRule(kind="fixed-budget", budgets=(20, 20))),
            dict(stopping=StoppingRule(kind="fixed-budget", budgets=(7, 31))),
            dict(w1=0.3, stopping=StoppingRule(kind="fixed-budget", budgets=(25, 15))),
            dict(stopping=StoppingRule(kind="threshold", w_min=0.2, max_iterations=40)),
            dict(
                w_cap=math.inf,
                stopping=StoppingRule(kind="threshold", w_min=0.3, max_iterations=25),
            ),
            dict(r=0.5, stopping=StoppingRule(kind="threshold", w_min=0.05, max_iterations=60)),
            dict(record_every=1, stopping=StoppingRule(kind="fixed-budget", budgets=(20, 20))),
            dict(record_every=3, stopping=StoppingRule(kind="fixed-budget", budgets=(7, 31))),
            dict(record_every=10,
                 stopping=StoppingRule(kind="threshold", w_min=0.2, max_iterations=40)),
        ],
        ids=["fixed", "fixed-uneven", "fixed-narrow", "threshold", "threshold-uncapped",
             "threshold-fast", "fixed-every-1", "fixed-uneven-every-3", "threshold-every-10"],
    )
    def test_drift_control_refreshes_the_fold(self, monkeypatch, overrides, fidelity_mode):
        """With the drift control every 5 iterations, at each recorded k the
        fold recomputes every row whose basis it moved, punished or not,
        whether the points fall on drift-control iterations or between
        them, and however far the rounds run members past a point."""
        monkeypatch.setattr(protocol, "REORTHONORMALIZE_EVERY", 5)
        monkeypatch.setattr(reference, "REORTHONORMALIZE_EVERY", 5)
        cfg = small_config(**{"dim": 3, "repetitions": 8, "record_every": 5,
                              "fidelity_mode": fidelity_mode, **overrides})
        want, _ = reference_experiment(cfg)
        assert_same_result(harness.run_experiment(cfg), want)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(repetitions=16, record_every=3,
                 stopping=StoppingRule(kind="fixed-budget", budgets=(400, 250, 200))),
            dict(repetitions=12, record_every=10,
                 stopping=StoppingRule(kind="threshold", w_min=0.2, max_iterations=300)),
            dict(repetitions=9, record_every=1, fidelity_mode="paper",
                 stopping=StoppingRule(kind="threshold", w_min=0.2, max_iterations=300)),
            # more members than a draw row is wide, and windows of several iterations
            dict(repetitions=300, record_every=3,
                 stopping=StoppingRule(kind="fixed-budget", budgets=(30, 20, 10))),
        ],
        ids=["fixed-every-3", "threshold-every-10", "threshold-paper-every-1",
             "fixed-300-repetitions"],
    )
    def test_results_do_not_depend_on_how_rounds_group_iterations(
        self, monkeypatch, tmp_path, overrides
    ):
        """The same CSV bytes and trace records whether rounds are wide or
        one iteration, and whether members may run far ahead or one window."""
        cfg = replace(harness.load_config(str(CONFIG_DIR / "fig6_random2q.json")), **overrides)
        runs = []
        for elements, lead in ((1024, 1 << 23), (1, 1 << 23), (64, 4096), (16, 2000), (1024, 1)):
            monkeypatch.setattr(protocol, "ROUND_ELEMENTS", elements)
            monkeypatch.setattr(protocol, "LEAD_BYTES", lead)
            result = harness.run_experiment(cfg, trace=True)
            path = tmp_path / f"{elements}-{lead}.csv"
            harness.write_results(result, str(path))
            runs.append((path.read_bytes(), column_bytes(result.trace.decisions),
                         result.trace.final_basis.tobytes()))
        assert all(run == runs[0] for run in runs[1:])

    def test_the_fold_holds_at_most_its_bound_between_flushes(self, monkeypatch):
        """Between flushes a ragged threshold run's fold keeps round arrays
        of at most the bytes it counts, fewer than ``FOLD_BYTES``, and a
        ring of rows for the points passed but not summed, exactly as wide
        as the widest spread of those points at a flush yet and never wider
        than the engine's lead allows, ``max(LEAD_BYTES // (8 n (1 +
        d**2)), widest) // record_every + 2``: together under ``FOLD_BYTES``
        plus that many rows a repetition.  Members far ahead of the slowest
        widen the ring past half its bound."""
        monkeypatch.setattr(protocol, "LEAD_BYTES", 1 << 17)
        cfg = replace(harness.load_config(str(CONFIG_DIR / "fig6_random2q.json")),
                      repetitions=12, record_every=1,
                      stopping=StoppingRule(kind="threshold", w_min=0.05, max_iterations=3000))
        env = harness.build_environment(cfg)
        ensemble = protocol.EnsembleState(
            cfg.dim, cfg.params, cfg.stopping,
            [reference.derive_seed(cfg.seed, i) for i in range(cfg.repetitions)],
        )
        fold = harness._Fold(cfg, env, ensemble)
        lead = max(protocol.LEAD_BYTES // (8 * cfg.repetitions * (1 + cfg.dim**2)),
                   ensemble.widest)
        span, widths, spreads = lead // cfg.record_every + 2, [], [1]

        def observe(state, rec):
            flushes = fold.flushes
            fold.observe(state, rec)
            kept = {id(array): array.nbytes for arrays in fold._kept for array in arrays}
            assert sum(kept.values()) <= fold._bytes < harness.FOLD_BYTES
            rows, width, _ = fold._ahead.shape
            assert rows == cfg.repetitions and width <= span
            assert (sum(kept.values()) + fold._ahead.nbytes
                    < harness.FOLD_BYTES + cfg.repetitions * span * fold.rows[0].nbytes)
            if fold.flushes > flushes and len(state.active):
                spreads.append(state.calls.max() // cfg.record_every
                               - state.calls[state.active].min() // cfg.record_every)
            assert width == max(spreads)
            widths.append(width)

        protocol.run_stages(ensemble, harness._black_box(env), observe)
        assert fold.flushes > 2 and span // 2 < max(widths) <= span

    def test_fold_is_sequential_in_repetition_order(self):
        """np.add.reduce down axis 0 of a C-contiguous block, its other axes
        together at least two wide, adds the rows one after another: a
        flush sums its points' blocks so, in repetition order."""
        rng = np.random.default_rng(4)
        for shape in ((2,), (3,), (5,), (17,), (257,), (1, 3), (2, 3), (7, 3), (7, 17), (40, 5)):
            for count in (1, 2, 9, 100, 1000):
                rows = rng.random((count, *shape)) ** 3
                folded = np.zeros(shape)
                for row in rows:
                    folded = folded + row
                assert np.add.reduce(rows, axis=0).tobytes() == folded.tobytes()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(fidelity_mode="paper", record_every=1,
             stopping=StoppingRule(kind="fixed-budget", budgets=(50, 30, 20))),
        dict(fidelity_mode="paper", record_every=7,
             stopping=StoppingRule(kind="threshold", w_min=0.1, max_iterations=200)),
        dict(record_every=1, stopping=StoppingRule(kind="threshold", w_min=0.1, max_iterations=200)),
        dict(record_every=7, stopping=StoppingRule(kind="fixed-budget", budgets=(50, 30, 20))),
        dict(resample_env_per_repetition=True, record_every=1,
             stopping=StoppingRule(kind="threshold", w_min=0.1, max_iterations=200)),
        dict(resample_env_per_repetition=True, record_every=7,
             stopping=StoppingRule(kind="fixed-budget", budgets=(50, 30, 20))),
    ],
    ids=["paper-fixed-every-1", "paper-threshold-every-7", "per-rep-threshold-every-1",
         "per-rep-fixed-every-7", "resampled-threshold-every-1", "resampled-fixed-every-7"],
)
@pytest.mark.parametrize("elements", [1 << 10, 24, 1], ids=["ragged", "narrow", "lockstep"])
def test_flush_boundaries_move_no_bit(monkeypatch, tmp_path, overrides, elements):
    """A flush after every round, the shipped bound and one flush deferred to
    ``finalize`` give the same CSV bytes and ``per_repetition_final``
    bytes, in both fidelity modes, under both stopping rules, at strides 1
    and 7, on shared and resampled operators, in rounds of many iterations,
    in rounds of two, whose bases before their moves outweigh their search
    ranges and are read at once, and in lockstep."""
    monkeypatch.setattr(protocol, "ROUND_ELEMENTS", elements)
    cfg = small_config(dim=4, repetitions=12, seed=3, **overrides)
    read_now = harness._Fold._read_now
    read = []

    def counted(fold, *args):
        read.append(1)
        return read_now(fold, *args)

    monkeypatch.setattr(harness._Fold, "_read_now", counted)
    runs = []
    for bound in (0, harness.FOLD_BYTES, 1 << 62):
        monkeypatch.setattr(harness, "FOLD_BYTES", bound)
        result = harness.run_experiment(cfg)
        path = tmp_path / f"{bound}.csv"
        harness.write_results(result, str(path))
        runs.append((path.read_bytes(), result.per_repetition_final.tobytes()))
    assert runs[0] == runs[1] == runs[2]
    assert (read or elements != 24) and not (read and elements == 1)


@st.composite
def small_configs(draw):
    """Small random-environment configs over every mode the engine has."""
    dim = draw(st.integers(2, 5))
    w1 = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        budgets = st.lists(st.integers(1, 60), min_size=dim - 1, max_size=dim - 1)
        stopping = StoppingRule(kind="fixed-budget", budgets=tuple(draw(budgets)))
    else:
        stopping = StoppingRule(
            kind="threshold",
            w_min=w1 * draw(st.floats(0.01, 0.9)),
            max_iterations=draw(st.integers(1, 200)),
        )
    resample = draw(st.booleans())
    return ExperimentConfig(
        dim=dim,
        env_kind="random",
        r=draw(st.floats(0.5, 0.99)),
        nu=draw(st.floats(1.0, 3.0)),
        w1=w1,
        w_cap=draw(st.sampled_from([math.inf, 1.0])),
        repetitions=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
        env_seed=draw(st.integers(0, 1000)),
        stopping=stopping,
        resample_env_per_repetition=resample,
        fidelity_mode="per-rep" if resample else draw(st.sampled_from(["paper", "per-rep"])),
        record_every=draw(st.integers(1, 7)),
    )


@st.composite
def engine_constants(draw):
    """The engine's module constants that set how rounds group iterations,
    at values a handful of repetitions feels: draw rows as narrow as one
    iteration's 4 doubles, windows of one iteration or of several, leads
    down to none, and the drift control every few iterations."""
    low = draw(st.sampled_from([4, 5, 6, 9]))
    return {
        "ROUND_ELEMENTS": draw(st.sampled_from([1 << 10, 1, 5, 12, 64])),
        "LEAD_BYTES": draw(st.sampled_from([1 << 23, 1, 1 << 9, 1 << 12])),
        "DRAW_BUFFER_BYTES": draw(st.sampled_from([1 << 21, 1, 1 << 8])),
        "DRAW_BUFFER_MIN": low,
        "DRAW_BUFFER_MAX": draw(st.sampled_from([256, low, low + 1, 40])),
        "REORTHONORMALIZE_EVERY": draw(st.sampled_from([10_000, 3, 7, 25])),
    }


#: the module's own values of the constants ``engine_constants`` draws
SHIPPED_CONSTANTS = {name: getattr(protocol, name) for name in (
    "ROUND_ELEMENTS", "LEAD_BYTES", "DRAW_BUFFER_BYTES", "DRAW_BUFFER_MIN", "DRAW_BUFFER_MAX",
    "REORTHONORMALIZE_EVERY")}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_configs(), engine_constants())
# a member stops ahead of the slowest, and a later round runs one iteration:
# its record must still keep the bases from before the round
@example(ExperimentConfig(dim=3, env_kind="random", r=0.5, nu=1.0, w1=0.5, repetitions=2,
                          seed=2, env_seed=0, resample_env_per_repetition=True,
                          fidelity_mode="per-rep", record_every=1,
                          stopping=StoppingRule(kind="fixed-budget", budgets=(8, 1))),
         SHIPPED_CONSTANTS)
def test_run_matches_the_reference_on_small_configs(cfg, constants):
    """One ensemble run, its fold and its captured trace equal the loop that
    runs one repetition at a time, bit for bit, however the engine's
    constants group the iterations into rounds.  The drawn constants reach
    more members than a draw row is wide, a one-iteration window below 1024
    members, a lead shorter than the window, ``LEAD_BYTES`` of 1 and the
    drift control inside a wide window; the reference reads only
    ``REORTHONORMALIZE_EVERY``, patched on both sides."""
    runs = []

    def keep(*args, **kwargs):
        runs.append(protocol.run_stages(*args, **kwargs))
        return runs[-1]

    with ExitStack() as patched:
        for name, value in constants.items():
            patched.enter_context(mock.patch.object(protocol, name, value))
        patched.enter_context(mock.patch.object(
            reference, "REORTHONORMALIZE_EVERY", constants["REORTHONORMALIZE_EVERY"]))
        patched.enter_context(mock.patch.object(harness, "run_stages", keep))
        got = harness.run_experiment(cfg, trace=True)
        want, agents = reference_experiment(cfg)
    assert_same_result(got, want)

    (ensemble,) = runs
    for i, agent in enumerate(agents):
        assert ensemble.bases[i].tobytes() == agent.basis.tobytes()
        assert ensemble.w[i].tobytes() == np.float64(agent.w).tobytes()
        assert ensemble.calls[i] == agent.k - 1
    assert got.trace.header == want.trace.header
    assert column_bytes(got.trace.decisions) == column_bytes(want.trace.decisions)
    assert got.trace.final_basis.tobytes() == want.trace.final_basis.tobytes()


class TestResultFiles:
    def test_csv_roundtrip_and_shape(self, tmp_path):
        res = harness.run_experiment(small_config(repetitions=6))
        path = tmp_path / "out.csv"
        harness.write_results(res, str(path))
        metadata, ks, stages, search, fidelity = read_results(str(path))
        np.testing.assert_array_equal(ks, res.ks)
        np.testing.assert_array_equal(stages, res.stages)
        np.testing.assert_array_equal(search, res.search_curve)
        np.testing.assert_array_equal(fidelity, res.fidelity_curves)
        assert metadata["config"]["repetitions"] == 6
        assert metadata["format"] == harness.RESULTS_FORMAT
        header = path.read_text().splitlines()[1]
        assert header == "k,stage,W,F_0,F_1"

    def test_four_level_csv_has_six_fidelity_columns(self, tmp_path):
        cfg = small_config(
            dim=4,
            env_seed=2,
            repetitions=3,
            stopping=StoppingRule(kind="fixed-budget", budgets=(5, 5, 5)),
        )
        res = harness.run_experiment(cfg)
        path = tmp_path / "out4.csv"
        harness.write_results(res, str(path))
        header = path.read_text().splitlines()[1].split(",")
        assert header == ["k", "stage", "W", "F_0", "F_1", "F_2", "F_3"]

    def test_json_format_mirrors_the_result(self, tmp_path):
        res = harness.run_experiment(small_config(repetitions=4))
        path = tmp_path / "out.json"
        harness.write_results(res, str(path), fmt="json")
        doc = json.loads(path.read_text())
        assert doc["metadata"]["config"]["seed"] == 99
        np.testing.assert_allclose(doc["search_curve"], res.search_curve)
        np.testing.assert_allclose(doc["fidelity_curves"], res.fidelity_curves)
        assert len(doc["per_repetition_final"]) == 4
        assert doc["diag_residual"] == res.diag_residual

    def test_rejects_empty_results_and_unknown_formats(self, tmp_path):
        res = harness.run_experiment(small_config(repetitions=3))
        empty = harness.ExperimentResult(
            ks=np.array([], dtype=int),
            stages=np.array([], dtype=int),
            fidelity_curves=np.zeros((2, 0)),
            search_curve=np.array([]),
            per_repetition_final=np.zeros((0, 2, 2)),
            diag_residual=0.0,
        )
        with pytest.raises(ConfigError):
            harness.write_results(empty, str(tmp_path / "x.csv"))
        with pytest.raises(ConfigError):
            harness.write_results(res, str(tmp_path / "x.xml"), fmt="xml")

    def test_write_twice_is_byte_identical(self, tmp_path):
        cfg = small_config(repetitions=8)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_results(harness.run_experiment(cfg), str(first))
        harness.write_results(harness.run_experiment(cfg), str(second))
        assert first.read_bytes() == second.read_bytes()


class TestBasisFiles:
    def test_roundtrip(self, tmp_path):
        basis = env_random(3, 1.0, [12]).eigensystem.eigenvectors[0]
        path = tmp_path / "b.json"
        harness.save_basis(str(path), basis)
        np.testing.assert_allclose(harness.load_basis(str(path)), basis, atol=1e-15)

    def test_malformed_files(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ConfigError):
            harness.load_basis(str(path))
        path.write_text("{}")
        with pytest.raises(ConfigError):
            harness.load_basis(str(path))
        path.write_text(
            json.dumps({"dim": 3, "entries_re": [[1, 0], [0, 1]],
                        "entries_im": [[0, 0], [0, 0]]})
        )
        with pytest.raises(ConfigError):
            harness.load_basis(str(path))


def test_record_trace_replays_clean(tmp_path):
    cfg = small_config(repetitions=4)
    path = tmp_path / "rep0.trace"
    final_hash = harness.run_experiment(cfg, trace=True).trace.write(str(path))
    header, decisions, recorded = protocol.read_trace(str(path))
    assert protocol.basis_hash(protocol.replay_basis(header["dim"], decisions)) == recorded
    assert recorded == final_hash
    assert header["root_seed"] == cfg.seed
    assert len(decisions.stage) == 80  # the last k


def test_replay_crosses_the_drift_control(tmp_path, monkeypatch):
    """With the drift control every 7 iterations, a trace replays to the
    footer's hash only if replay re-orthonormalizes where the run did."""
    monkeypatch.setattr(protocol, "REORTHONORMALIZE_EVERY", 7)
    config = replace(harness.load_config(str(CONFIG_DIR / "fig7_bell.json")), repetitions=3)
    path = tmp_path / "rep0.trace"
    harness.run_experiment(config, trace=True).trace.write(str(path))
    header, decisions, recorded = protocol.read_trace(str(path))
    assert len(decisions.stage) == 1000  # 142 drift controls
    assert protocol.basis_hash(protocol.replay_basis(header["dim"], decisions)) == recorded


def test_blocks_with_a_zero_product_replay_to_the_live_and_reference_basis(
    tmp_path, monkeypatch
):
    """``fig5_sx`` from ``w1 = 1e-320``: every punish block, live and
    replayed, has a half-angle product that underflows to zero, where the
    one block builder may differ from the closed form in the sign of a zero.
    Replay, the live run and the scalar reference agent still end
    repetition 0 on the same basis bytes."""
    raw = json.loads((CONFIG_DIR / "fig5_sx.json").read_text())
    config = config_from_dict({**raw, "repetitions": 3, "w1": 1e-320})
    angles, real = [], linalg.rotation_blocks
    monkeypatch.setattr(linalg, "rotation_blocks", lambda phi: angles.append(phi) or real(phi))
    path = tmp_path / "rep0.trace"
    trace = harness.run_experiment(config, trace=True).trace
    trace.write(str(path))
    header, decisions, recorded = protocol.read_trace(str(path))
    replayed = protocol.replay_basis(header["dim"], decisions)

    phi = np.concatenate(angles, axis=1)
    trig = np.array((np.cos(0.5 * phi), np.sin(0.5 * phi)))
    # the products rotation_blocks multiplies, in its order
    products = (trig[:, 1, None] * trig[None, :, 0])[:, :, None] * trig[None, None, :, 2]
    assert phi.shape[1] == 748  # 554 live blocks, 194 replayed
    assert not products.all(axis=(0, 1, 2)).any()

    seed = reference.derive_seed(config.seed, 0)
    agent = AgentState(config.dim, config.params, seed)
    reference.run_agent(agent, lone_black_box(harness.build_environment(config)),
                        config.stopping)
    assert replayed.tobytes() == trace.final_basis.tobytes() == agent.basis.tobytes()
    assert protocol.basis_hash(replayed) == recorded


@pytest.mark.parametrize("name", ["fig3_r09_nu2", "fig7_bell"])
def test_record_trace_writes_the_bytes_of_the_reference_agent(tmp_path, name):
    """A one-member engine run writes the scalar reference's trace: the same
    angles, ``w_after`` and ``k`` on every line and the same final basis
    hash."""
    config = harness.load_config(str(CONFIG_DIR / f"{name}.json"))
    engine = tmp_path / "engine.trace"
    harness.run_experiment(replace(config, repetitions=1), trace=True).trace.write(str(engine))

    seed = reference.derive_seed(config.seed, 0)
    agent = AgentState(config.dim, config.params, seed)
    reference.run_agent(agent, lone_black_box(harness.build_environment(config)),
                        config.stopping)
    header = {"dim": config.dim, "rep_index": 0, "root_seed": config.seed,
              "agent_seed": seed}
    scalar = tmp_path / "reference.trace"
    protocol.write_trace(str(scalar), header, agent.decisions, agent.basis)
    assert protocol.PUNISH in classes(agent.decisions)
    assert engine.read_bytes() == scalar.read_bytes()


def test_read_trace_columns_write_back_the_file_bytes(tmp_path, monkeypatch):
    """The columns ``read_trace`` returns, written by ``write_trace`` with
    the basis ``replay_basis`` gives them, are the trace file's bytes,
    across drift controls every 7 iterations."""
    monkeypatch.setattr(protocol, "REORTHONORMALIZE_EVERY", 7)
    cfg = small_config(dim=3, repetitions=3,
                       stopping=StoppingRule(kind="fixed-budget", budgets=(40, 30)))
    path, again = tmp_path / "run.trace", tmp_path / "again.trace"
    harness.run_experiment(cfg, trace=True).trace.write(str(path))
    header, decisions, _ = protocol.read_trace(str(path))
    assert set(classes(decisions)) == {protocol.REWARD, protocol.PUNISH, protocol.NEUTRAL}
    protocol.write_trace(str(again), header, decisions,
                         protocol.replay_basis(header["dim"], decisions))
    assert again.read_bytes() == path.read_bytes()


def test_threshold_convergence_couples_probe_to_outcome():
    """After a threshold stop the probe re-measures as its own stage.

    Uses the uncapped update, where the search width can only fall below
    ``w_min`` through a long reward streak; a capped agent can stumble
    under the threshold while the probe is still noticeably off-axis.
    """
    params = protocol.RewardParams(r=0.9, nu=2.0, w1=1.0)
    rule = StoppingRule(kind="threshold", w_min=1e-3, max_iterations=200_000)
    for seed in (13, 16, 22, 23, 24):
        env = env_random(2, 1.0, [seed])
        agent = protocol.EnsembleState(2, params, rule, [seed])
        protocol.run_stages(agent, harness._black_box(env))
        assert agent.k - 1 < rule.max_iterations  # stopped via w, not budget
        basis = agent.bases[0]
        evolved = lone_black_box(env)(basis[:, 0])
        weights = np.abs(basis.conj().T @ evolved) ** 2
        rng = np.random.default_rng(1000 + seed)
        hits = int(np.sum(rng.random(1000) < weights[0]))
        assert hits >= 990


def test_threshold_stops_that_hit_the_cap_are_counted(caplog):
    """Per stage, the run counts and logs the repetitions whose threshold
    stage closed at ``w_min`` and those the ``max_iterations`` cap closed,
    as the lone reference agents end their stages."""
    rule = StoppingRule(kind="threshold", w_min=0.5, max_iterations=8)
    cfg = small_config(dim=3, repetitions=20, stopping=rule)
    want = np.zeros((2, 2), dtype=int)  # [stage, (reached w_min, hit the cap)]
    for i in range(cfg.repetitions):
        agent = AgentState(cfg.dim, cfg.params, reference.derive_seed(cfg.seed, i))
        reference.run_agent(agent, lone_black_box(lone_environment(cfg, i)), rule)
        last_w = dict(zip(agent.decisions.stage, agent.decisions.w_after))
        for t, w in last_w.items():
            want[t, 0 if w < rule.w_min else 1] += 1
    assert want.min() > 0  # the cap binds, and w_min is met too, in each stage
    with caplog.at_level(logging.INFO, logger="eigenrl.harness"):
        harness.run_experiment(cfg)
    logged = [r.getMessage() for r in caplog.records if r.name == "eigenrl.harness"]
    assert [line for line in logged if line.startswith("stage ")] == [
        f"stage {t}: {met} repetitions reached w_min, {capped} hit max_iterations"
        for t, (met, capped) in enumerate(want.tolist())
    ]


def test_info_log_counts_iterations_probes_and_rounds(caplog):
    """At INFO a run ends by logging its black-box calls, which are the
    iterations, the probes the simulator evolved, the engine's rounds and
    their wall time; none of them enters the results."""
    runs = []

    def keep(*args, **kwargs):
        runs.append(protocol.run_stages(*args, **kwargs))
        return runs[-1]

    cfg = small_config(dim=3, repetitions=6, stopping=StoppingRule(kind="fixed-budget",
                                                                    budgets=(40, 30)))
    with mock.patch.object(harness, "run_stages", keep), \
            caplog.at_level(logging.INFO, logger="eigenrl.harness"):
        harness.run_experiment(cfg)
    (ensemble,) = runs
    (line,) = [r.getMessage() for r in caplog.records if "engine rounds" in r.getMessage()]
    shape = re.fullmatch(r"(\d+) iterations \(black-box calls\), (\d+) probes evolved "
                         r"\(a simulator cost\), (\d+) engine rounds in (\d+\.\d{3}) s, "
                         r"(\d+\.\d) us per round; the fold (\d+\.\d{3}) s, (\d+) flushes", line)
    assert shape, line
    calls, probes, rounds = (int(word) for word in shape.groups()[:3])
    assert calls == ensemble.calls.sum() == cfg.repetitions * 70
    assert (probes, rounds) == (ensemble.evolved, ensemble.rounds)
    assert rounds < 70 < probes < calls
    seconds, per_round = (float(word) for word in shape.groups()[3:5])
    assert per_round == pytest.approx(1e6 * seconds / rounds, abs=0.05 + 1e3 / rounds)


@pytest.mark.parametrize("bound, elements", [(0, 1 << 10), (1 << 62, 1 << 10), (0, 1)],
                         ids=["every-round", "deferred", "lockstep"])
def test_info_log_counts_the_fold_flushes(caplog, monkeypatch, bound, elements):
    """The closing INFO line gives the fold's own wall time, within that of
    the whole run, and counts its flushes: one after every round of many
    iterations with a bound of 0, only the one after the last with a bound
    no run reaches, and none when every round is one iteration in
    lockstep.  Neither enters the results."""
    monkeypatch.setattr(harness, "FOLD_BYTES", bound)
    monkeypatch.setattr(protocol, "ROUND_ELEMENTS", elements)
    runs = []

    def keep(*args, **kwargs):
        runs.append(protocol.run_stages(*args, **kwargs))
        return runs[-1]

    cfg = small_config(dim=3, repetitions=6, stopping=StoppingRule(kind="fixed-budget",
                                                                    budgets=(40, 30)))
    with mock.patch.object(harness, "run_stages", keep), \
            caplog.at_level(logging.INFO, logger="eigenrl.harness"):
        start = time.perf_counter()
        result = harness.run_experiment(cfg)
        seconds = time.perf_counter() - start
    (ensemble,) = runs
    (line,) = [r.getMessage() for r in caplog.records if "the fold" in r.getMessage()]
    spent, flushes = re.search(r"; the fold (\d+\.\d{3}) s, (\d+) flushes$", line).groups()
    assert int(flushes) == (0 if elements == 1 else ensemble.rounds if bound == 0 else 1)
    assert float(spent) <= seconds
    assert "flush" not in json.dumps(result.metadata)


@pytest.mark.parametrize("resample", [False, True])
def test_info_log_counts_the_set_up_before_the_first_round(caplog, resample):
    """Before its first round a run logs, at INFO, the environments it built
    and the members it seeded, each with its own wall time."""
    logged = []

    def keep(*args, **kwargs):
        logged.extend(r.getMessage() for r in caplog.records)
        return protocol.run_stages(*args, **kwargs)

    modes = dict(resample_env_per_repetition=True, fidelity_mode="per-rep") if resample else {}
    cfg = small_config(repetitions=6, **modes)
    with mock.patch.object(harness, "run_stages", keep), \
            caplog.at_level(logging.INFO, logger="eigenrl.harness"):
        harness.run_experiment(cfg)
    (line,) = [message for message in logged if message.startswith("set-up")]
    shape = re.fullmatch(r"set-up: (\d+) environments built in (\d+\.\d{3}) s, "
                         r"(\d+) members seeded in (\d+\.\d{3}) s", line)
    assert shape, line
    assert shape.group(1, 3) == (str(cfg.repetitions if resample else 1), str(cfg.repetitions))


def test_residual_tracks_fidelity_loss():
    """diag_residual and min_j F_j move in strictly opposite rank order."""
    env = env_random(3, 1.0, [21])
    exact = env.eigensystem.eigenvectors[0]
    bases, fidelities = [], []
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
        basis = exact @ two_level_rotation(0, 1, 3, (theta, 0.0, 0.0))
        bases.append(basis)
        fidelities.append(np.abs(exact.conj().T @ basis).max(axis=0).min())
    residuals = linalg.diag_residual(np.stack(bases), env.operators)
    assert np.all(np.diff(residuals) > 0)
    assert np.all(np.diff(fidelities) < 0)

    # the same anti-correlation shows up across partially converged runs
    lengths = (10, 40, 160, 640)
    run_resid, run_fid = [], []
    for budget in lengths:
        cfg = small_config(
            repetitions=20,
            stopping=StoppingRule(kind="fixed-budget", budgets=(budget,)),
        )
        res = harness.run_experiment(cfg)
        run_resid.append(res.diag_residual)
        run_fid.append(res.final_fidelities().min())
    assert run_fid[-1] > run_fid[0]
    assert run_resid[-1] < run_resid[0]
    rank_r = np.argsort(np.argsort(run_resid))
    rank_f = np.argsort(np.argsort(run_fid))
    spearman = np.corrcoef(rank_r, rank_f)[0, 1]
    assert spearman <= -0.7
