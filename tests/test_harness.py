"""Experiment driver: config schema, aggregation, result files."""
import json
import logging
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eigenrl import harness, linalg, protocol
from eigenrl.environment import env_from_matrix, env_random, env_spin_x, save_operator
from eigenrl.errors import ConfigError, DimMismatch, ModeMismatch
from eigenrl.harness import ExperimentConfig, config_from_dict
from eigenrl.protocol import StoppingRule
from reference import AgentState, lone_black_box, lone_environment, reference_experiment
from results import read_results

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DIAG = np.diag([-1.0, 1.0])


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


def test_derive_seed_is_stable_and_spread():
    assert harness.derive_seed(7, 0) == harness.derive_seed(7, 0)
    seen = {harness.derive_seed(7, i) for i in range(200)}
    assert len(seen) == 200
    assert harness.derive_seed(7, 0) != harness.derive_seed(8, 0)
    assert harness.derive_seed(7, 0, salt=23) != harness.derive_seed(7, 0)


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
        with pytest.raises(ModeMismatch):
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
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(env_kind="single-qubit-spec"))
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
        np.testing.assert_allclose(env.operator, [[0.0, 0.5], [0.5, 0.0]])
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
            harness, "_black_box", lambda envs: built.append(envs) or real_black_box(envs)
        )
        harness.run_experiment(cfg)
        (envs,) = built
        assert len(envs) == 1
        assert envs[0].unitary.tobytes() == harness.build_environment(cfg).unitary.tobytes()

    def test_resampled_environments_differ_but_reproduce(self):
        cfg = small_config(resample_env_per_repetition=True)
        a0, a1, again = (lone_environment(cfg, i) for i in (0, 1, 0))
        assert not np.allclose(a0.operator, a1.operator)
        np.testing.assert_array_equal(a0.operator, again.operator)

    def test_run_builds_resampled_environments_together_with_the_lone_bits(
        self, monkeypatch
    ):
        cfg = small_config(dim=5, repetitions=6, resample_env_per_repetition=True,
                           stopping=StoppingRule(kind="fixed-budget", budgets=(20,) * 4))
        shapes, built = [], []
        real_eig, real_black_box = linalg.eig_hermitian, harness._black_box
        monkeypatch.setattr(
            linalg, "eig_hermitian", lambda h: shapes.append(np.shape(h)) or real_eig(h)
        )
        monkeypatch.setattr(
            harness, "_black_box", lambda envs: built.append(envs) or real_black_box(envs)
        )
        harness.run_experiment(cfg)
        # one stacked call for the spreads, one for the rescaled operators
        assert shapes == [(6, 5, 5), (6, 5, 5)]
        monkeypatch.setattr(linalg, "eig_hermitian", real_eig)
        (envs,) = built
        assert len(envs) == cfg.repetitions
        for i, env in enumerate(envs):
            lone = lone_environment(cfg, i)
            assert env.operator.tobytes() == lone.operator.tobytes()
            assert env.unitary.tobytes() == lone.unitary.tobytes()
            ours, theirs = env.eigensystem_oracle(), lone.eigensystem_oracle()
            assert ours.eigenvalues.tobytes() == theirs.eigenvalues.tobytes()
            assert ours.eigenvectors.tobytes() == theirs.eigenvectors.tobytes()

    def test_file_kind_uses_config_tau(self, tmp_path):
        path = tmp_path / "op.json"
        save_operator(str(path), np.diag([-1.0, 1.0]).astype(complex), tau=9.9)
        cfg = small_config(env_kind="file", operator_file=str(path), tau=0.5)
        env = harness.build_environment(cfg)
        assert env.tau == 0.5
        np.testing.assert_allclose(
            env.unitary, np.diag(np.exp([0.5j, -0.5j])), atol=1e-12
        )


def two_level_rotation(a, b, dim, angles):
    """The two-level rotation on basis states a < b, as a dim x dim unitary."""
    u = np.eye(dim, dtype=complex)
    u[np.ix_((a, b), (a, b))] = linalg.rotation_block(angles)
    return u


def fold_at_start(bases, envs, mode, w1=1.0):
    """The fold of hand-set member bases at k = 0, and the fold itself."""
    n, d = bases.shape[:2]
    config = small_config(
        dim=d,
        repetitions=n,
        w1=w1,
        fidelity_mode=mode,
        resample_env_per_repetition=len(envs) > 1,
        stopping=StoppingRule(kind="fixed-budget", budgets=(1,) * (d - 1)),
    )
    ensemble = protocol.EnsembleState(d, config.params, list(range(n)))
    ensemble.bases[:] = bases
    return harness._Fold(config, envs, ensemble), ensemble


def start_fidelity(bases, envs, mode):
    fold, ensemble = fold_at_start(np.asarray(bases, dtype=complex), envs, mode)
    return fold.finalize(ensemble, envs).fidelity_curves[:, 0]


class TestMeanFidelity:
    """The one fidelity reduction, the streaming fold, on hand-set bases."""

    def setup_method(self):
        self.diag_env = env_from_matrix(np.diag([-1.0, 1.0]), 1.0)  # eigenbasis = I

    def test_identity_on_diagonal_environment(self):
        mats = np.stack([np.eye(2)] * 4)
        for mode in ("paper", "per-rep"):
            np.testing.assert_allclose(start_fidelity(mats, [self.diag_env], mode), 1.0)

    def test_single_rotation_takes_best_match(self):
        theta = 0.8
        rot = linalg.rotation_block(
            linalg.RotationAngles(phi_x=theta, phi_y=0.0, phi_z=0.0)
        )
        expected = max(abs(math.cos(theta / 2)), abs(math.sin(theta / 2)))
        for mode in ("paper", "per-rep"):
            value = start_fidelity([rot], [self.diag_env], mode)[0]
            assert value == pytest.approx(expected)

    def test_mode_placement_differs_on_split_ensembles(self):
        # half the runs landed on each eigenvector: per-rep credits both,
        # the shared-index mean cannot
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mats = [np.eye(2), swap]
        assert start_fidelity(mats, [self.diag_env], "per-rep")[0] == pytest.approx(1.0)
        assert start_fidelity(mats, [self.diag_env], "paper")[0] == pytest.approx(0.5)

    def test_paper_mode_requires_shared_eigensystem(self):
        with pytest.raises(ModeMismatch):
            small_config(fidelity_mode="paper", resample_env_per_repetition=True)
        envs = [self.diag_env, env_spin_x(1.0)]
        value = start_fidelity([np.eye(2)] * 2, envs, "per-rep")[0]
        assert value == pytest.approx((1.0 + 1.0 / math.sqrt(2.0)) / 2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict(raw_dict(fidelity_mode="both"))
        with pytest.raises(ConfigError):  # a ModeMismatch is bad input too
            config_from_dict(raw_dict(resample_env_per_repetition=True))

    def test_random_products_stay_in_bounds(self):
        rng = np.random.default_rng(6)
        mats = np.tile(np.eye(4, dtype=complex), (50, 1, 1))
        for mat in mats:
            for _ in range(6):
                a, b = sorted(rng.choice(4, size=2, replace=False))
                angles = linalg.RotationAngles(*rng.uniform(-math.pi, math.pi, 3))
                mat[:] = mat @ two_level_rotation(int(a), int(b), 4, angles)
        envs = [env_random(4, 1.0, seed=2)]
        for mode in ("per-rep", "paper"):
            fold, ensemble = fold_at_start(mats, envs, mode)
            result = fold.finalize(ensemble, envs)
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
    fold, ensemble = fold_at_start(np.stack([np.eye(2)] * 2), [env_spin_x(1.0)],
                                   "per-rep", w1=0.7)
    members = np.arange(2)
    rec = protocol.EnsembleRecord(k=1, members=members, stage=np.zeros(2, int),
                                  outcome=np.zeros(2, int), w_after=np.array([0.9, 1.1]),
                                  angles=np.empty((3, 0)))
    fold.observe(ensemble, rec)
    search = fold.finalize(ensemble, [env_spin_x(1.0)]).search_curve
    assert search[0] == 0.7
    assert search[1] == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        small_config(repetitions=0)


class TestDiagResidual:
    def test_exact_eigenbasis_nulls_the_residual(self):
        env = env_random(3, 1.0, seed=44)
        exact = env.eigensystem_oracle().eigenvectors
        assert harness.diag_residual(exact[None], env.operator[None])[0] < 1e-9

    def test_identity_on_diagonal_operator_is_zero(self):
        assert harness.diag_residual(np.eye(2)[None], DIAG[None]).tolist() == [0.0]

    def test_hadamard_fully_scrambles_a_diagonal_operator(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        value = harness.diag_residual(hadamard[None], DIAG[None])[0]
        assert value == pytest.approx(1.0)

    def test_dim_mismatch_and_agent_wrapper(self):
        mismatched = [
            (np.eye(3)[None], DIAG[None]),  # another dim
            (np.eye(2), DIAG),  # not stacks
            (np.ones((1, 2, 3)), np.ones((1, 2, 3))),  # not square
            (np.stack([np.eye(2)] * 3), np.stack([DIAG] * 2)),  # 3 bases, 2 operators
        ]
        for bases, operators in mismatched:
            with pytest.raises(DimMismatch):
                harness.diag_residual(bases, operators)
        # a one-repetition result reports the residual of its lone agent
        cfg = small_config(repetitions=1)
        env = harness.build_environment(cfg)
        agent = AgentState(2, cfg.params, harness.derive_seed(cfg.seed, 0))
        protocol.run_stages(agent, lone_black_box(env), cfg.stopping)
        assert harness.run_experiment(cfg).diag_residual == reference.diag_residual(
            agent.basis, env.operator
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
        got = harness.diag_residual(bases, operators)
        for i in range(n):
            want = reference.diag_residual(bases[i], operators[0 if shared else i])
            assert got[i].tobytes() == np.float64(want).tobytes()
        zero = np.zeros((1, dim, dim), dtype=complex)
        assert harness.diag_residual(bases, zero).tolist() == [0.0] * n
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
        ],
        ids=[
            "fixed-shared-paper-1",
            "threshold-shared-perrep-7",
            "threshold-resampled-perrep-1",
            "fixed-resampled-perrep-7",
            "threshold-shared-paper-7",
            "fixed-crosses-gram-schmidt",
        ],
    )
    def test_ensemble_matches_agent_runs(self, overrides):
        """The lockstep engine reproduces lone agents bit for bit."""
        cfg = small_config(**{"repetitions": 10, **overrides})
        want, agents = reference_experiment(cfg)
        assert_same_result(harness.run_experiment(cfg), want)

        envs = [lone_environment(cfg, i) for i in range(cfg.repetitions)]
        unitaries = np.stack([env.unitary for env in envs])
        ensemble = protocol.EnsembleState(
            cfg.dim,
            cfg.params,
            [harness.derive_seed(cfg.seed, i) for i in range(cfg.repetitions)],
        )
        returned = protocol.run_stages(
            ensemble,
            lambda members, probes: (unitaries[members] @ probes[:, :, None])[:, :, 0],
            cfg.stopping,
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
        ],
        ids=["fixed", "fixed-uneven", "fixed-narrow", "threshold", "threshold-uncapped",
             "threshold-fast"],
    )
    def test_drift_control_refreshes_the_fold(self, monkeypatch, overrides, fidelity_mode):
        """With the drift control every 5 iterations, at each recorded k the
        fold recomputes every row whose basis it moved, punished or not."""
        monkeypatch.setattr(protocol, "REORTHONORMALIZE_EVERY", 5)
        monkeypatch.setattr(reference, "REORTHONORMALIZE_EVERY", 5)
        cfg = small_config(dim=3, repetitions=8, record_every=5,
                           fidelity_mode=fidelity_mode, **overrides)
        want, _ = reference_experiment(cfg)
        assert_same_result(harness.run_experiment(cfg), want)

    def test_fold_is_sequential_in_repetition_order(self):
        """np.add.reduce down axis 0 of a 2-d array, at least two columns
        wide, adds the rows one after another, as the streaming fold needs."""
        rng = np.random.default_rng(4)
        for width in (2, 3, 5, 17, 257):
            for count in (1, 2, 9, 100, 1000):
                rows = rng.random((count, width)) ** 3
                folded = np.zeros(width)
                for row in rows:
                    folded = folded + row
                assert np.add.reduce(rows, axis=0).tobytes() == folded.tobytes()


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_configs())
def test_run_matches_the_reference_on_small_configs(cfg):
    """One lockstep run, its fold and its captured trace equal the loop that
    runs one repetition at a time, bit for bit."""
    runs = []

    def keep(*args, **kwargs):
        runs.append(protocol.run_stages(*args, **kwargs))
        return runs[-1]

    with mock.patch.object(harness, "run_stages", keep):
        got = harness.run_experiment(cfg, trace=True)
    want, agents = reference_experiment(cfg)
    assert_same_result(got, want)

    (ensemble,) = runs
    for i, agent in enumerate(agents):
        assert ensemble.bases[i].tobytes() == agent.basis.tobytes()
        assert ensemble.w[i].tobytes() == np.float64(agent.w).tobytes()
        assert ensemble.calls[i] == agent.k - 1
    assert got.trace.header == want.trace.header
    assert repr(got.trace.records) == repr(want.trace.records)  # repr keeps every bit
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
        basis = env_random(3, 1.0, seed=12).eigensystem_oracle().eigenvectors
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
    header, records, recorded = protocol.read_trace(str(path))
    assert protocol.basis_hash(protocol.replay_basis(header["dim"], records)) == recorded
    assert recorded == final_hash
    assert header["root_seed"] == cfg.seed
    assert records[-1].k == 80


@pytest.mark.parametrize("name", ["fig3_r09_nu2", "fig7_bell"])
def test_record_trace_writes_the_bytes_of_the_reference_agent(tmp_path, name):
    """A one-member engine run writes the scalar reference's trace: the same
    angles, ``w_after`` and ``k`` on every line and the same final basis
    hash."""
    config = harness.load_config(str(CONFIG_DIR / f"{name}.json"))
    engine = tmp_path / "engine.trace"
    harness.run_experiment(replace(config, repetitions=1), trace=True).trace.write(str(engine))

    seed = harness.derive_seed(config.seed, 0)
    agent = AgentState(config.dim, config.params, seed)
    records = []
    protocol.run_stages(agent, lone_black_box(harness.build_environment(config)),
                        config.stopping, lambda a, rec: records.append(rec))
    header = {"dim": config.dim, "rep_index": 0, "root_seed": config.seed,
              "agent_seed": seed}
    scalar = tmp_path / "reference.trace"
    protocol.write_trace(str(scalar), header, records, agent.basis)
    assert any(rec.classification == protocol.PUNISH for rec in records)
    assert engine.read_bytes() == scalar.read_bytes()


def test_threshold_convergence_couples_probe_to_outcome():
    """After a threshold stop the probe re-measures as its own stage.

    Uses the uncapped update, where the search width can only fall below
    ``w_min`` through a long reward streak; a capped agent can stumble
    under the threshold while the probe is still noticeably off-axis.
    """
    params = protocol.RewardParams(r=0.9, nu=2.0, w1=1.0)
    rule = StoppingRule(kind="threshold", w_min=1e-3, max_iterations=200_000)
    for seed in (13, 16, 22, 23, 24):
        env = env_random(2, 1.0, seed=seed)
        agent = protocol.EnsembleState(2, params, [seed])
        protocol.run_stages(agent, harness._black_box([env]), rule)
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
        agent = AgentState(cfg.dim, cfg.params, harness.derive_seed(cfg.seed, i))
        last_w = {}
        protocol.run_stages(agent, lone_black_box(lone_environment(cfg, i)), rule,
                            lambda a, rec: last_w.__setitem__(rec.stage, rec.w_after))
        for t, w in last_w.items():
            want[t, 0 if w < rule.w_min else 1] += 1
    assert want.min() > 0  # the cap binds, and w_min is met too, in each stage
    with caplog.at_level(logging.INFO, logger="eigenrl.harness"):
        harness.run_experiment(cfg)
    assert [r.getMessage() for r in caplog.records if r.name == "eigenrl.harness"] == [
        f"stage {t}: {met} repetitions reached w_min, {capped} hit max_iterations"
        for t, (met, capped) in enumerate(want.tolist())
    ]


def test_residual_tracks_fidelity_loss():
    """diag_residual and min_j F_j move in strictly opposite rank order."""
    env = env_random(3, 1.0, seed=21)
    system = env.eigensystem_oracle()
    exact = system.eigenvectors
    bases, fidelities = [], []
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
        angles = linalg.RotationAngles(phi_x=theta, phi_y=0.0, phi_z=0.0)
        basis = exact @ two_level_rotation(0, 1, 3, angles)
        bases.append(basis)
        fidelities.append(np.abs(system.eigenvectors.conj().T @ basis).max(axis=0).min())
    residuals = harness.diag_residual(np.stack(bases), env.operator[None])
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
