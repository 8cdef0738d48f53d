"""Agent feedback loop: reward/punish bookkeeping, traces, determinism."""
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from eigenrl import harness, linalg, protocol
from eigenrl.cli import main
from eigenrl.environment import env_from_matrix, env_random
from eigenrl.errors import (
    BadDim,
    ConfigError,
    DimMismatch,
    OutOfRange,
    StageOverflow,
)
from eigenrl.protocol import (
    EnsembleState,
    RewardParams,
    StoppingRule,
    run_stages,
)
from reference import feed

DIAG2 = env_from_matrix(np.diag([-1.0, 1.0]).astype(complex), tau=1.0)


def default_params(**kw):
    merged = {"r": 0.9, "nu": 2.0, **kw}
    return RewardParams(**merged)


class TestRewardParams:
    def test_growth_factor(self):
        assert default_params().p == pytest.approx(2.0 / 0.9)
        assert RewardParams(r=0.6, nu=1.0).p == pytest.approx(1.0 / 0.6)

    @pytest.mark.parametrize(
        "kw",
        [
            {"r": 0.0},
            {"r": 1.0},
            {"r": 1.2},
            {"r": -0.3},
            {"nu": 0.5},
            {"w1": 0.0},
            {"w1": -1.0},
            {"w_cap": 0.0},
            {"w_cap": -2.0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            default_params(**kw)


class TestStoppingRule:
    def test_fixed_budget_needs_budgets(self):
        with pytest.raises(ConfigError):
            StoppingRule(kind="fixed-budget")
        with pytest.raises(ConfigError):
            StoppingRule(kind="fixed-budget", budgets=(5, 0))

    def test_threshold_rejects_budgets_and_bad_bounds(self):
        with pytest.raises(ConfigError):
            StoppingRule(kind="threshold", budgets=(3,))
        with pytest.raises(ConfigError):
            StoppingRule(w_min=0.0)
        with pytest.raises(ConfigError):
            StoppingRule(max_iterations=0)
        with pytest.raises(ConfigError):
            StoppingRule(kind="sometimes")

    def test_validate_rule_against_dim(self):
        params = default_params()
        with pytest.raises(ConfigError):
            protocol.validate_rule(
                3, params, StoppingRule(kind="fixed-budget", budgets=(5,))
            )
        with pytest.raises(ConfigError):
            protocol.validate_rule(2, params, StoppingRule(w_min=1.0))
        # exact-length budgets and sane thresholds pass
        protocol.validate_rule(
            3, params, StoppingRule(kind="fixed-budget", budgets=(5, 6))
        )
        protocol.validate_rule(2, params, StoppingRule(w_min=1e-3))


def test_agent_initial_state():
    agent = EnsembleState(3, default_params(), [1])
    np.testing.assert_array_equal(agent.bases[0], np.eye(3))
    assert agent.w[0] == 1.0
    assert agent.stage[0] == 0
    assert agent.k == 1
    assert (agent.n_r[0], agent.n_p[0], agent.n_neutral[0]) == (0, 0, 0)
    with pytest.raises(BadDim):
        EnsembleState(1, default_params(), [1])


def returning(evolved):
    """A black box that returns the states ``evolved``, whatever it is sent."""
    return lambda members, probes: evolved


def test_measure_validates_shape():
    agent = EnsembleState(2, default_params(), [3])
    with pytest.raises(DimMismatch):
        agent.measure(returning(np.zeros((1, 3), dtype=complex)))


def measure_lone(agent, evolved, times):
    """The outcomes of measuring ``evolved`` ``times`` times with a one-member
    ensemble; its weights are computed once and then reused."""
    outcomes = []
    for _ in range(times):
        agent._refill()
        outcomes.append(int(agent.measure(returning(evolved[None]))[0]))
    return outcomes


def test_measure_matches_born_weights():
    agent = EnsembleState(2, default_params(), [2024])
    evolved = np.array([math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j)])
    hits = sum(measure_lone(agent, evolved, 20000))
    assert hits / 20000 == pytest.approx(0.7, abs=0.015)


def test_measure_uses_adapted_basis():
    # after rotating the basis, outcome weights follow the new columns
    agent = EnsembleState(2, default_params(), [77])
    rot = linalg.rotation_block(
        linalg.RotationAngles(phi_x=0.9, phi_y=-0.4, phi_z=1.7)
    )
    agent.bases[0] = rot
    evolved = rot[:, 1]
    hits = sum(measure_lone(agent, evolved, 2000))
    assert hits == 2000  # evolved state sits exactly on column 1


def test_born_weight_check_raises_under_optimize():
    """The normalization check is an explicit raise, not an assert."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys, numpy as np\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from eigenrl.protocol import EnsembleState, RewardParams\n"
        "from eigenrl.errors import NotNormalized\n"
        "params = RewardParams(r=0.9, nu=2.0)\n"
        "box = lambda states: lambda members, probes: np.array(states, dtype=complex)\n"
        "caught = 0\n"
        "try:\n"
        "    EnsembleState(2, params, [1]).measure(box([[1.0, 1.0]]))\n"
        "except NotNormalized:\n"
        "    caught += 1\n"
        "ensemble = EnsembleState(2, params, [1, 2])\n"
        "try:\n"
        "    ensemble.measure(box([[1.0, 0.0], [0.6, 0.6]]))\n"
        "except NotNormalized:\n"
        "    caught += 1\n"
        "print(sys.flags.optimize, caught)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "2"]


class TestFeedback:
    def test_reward_shrinks_range_only(self):
        agent = EnsembleState(2, default_params(), [5])
        rec = feed(agent, 0)
        assert rec.classification == protocol.REWARD
        assert rec.angles is None
        assert agent.w[0] == pytest.approx(0.9)
        assert (agent.n_r[0], agent.n_p[0]) == (1, 0)
        np.testing.assert_array_equal(agent.bases[0], np.eye(2))

    def test_neutral_changes_nothing_but_the_counter(self):
        agent = EnsembleState(3, default_params(), [5])
        agent.advance_stage(np.array([0]))
        rec = feed(agent, 0)
        assert rec.classification == protocol.NEUTRAL
        assert agent.w[0] == 1.0
        assert agent.n_neutral[0] == 1
        np.testing.assert_array_equal(agent.bases[0], np.eye(3))

    def test_punish_draw_order_and_block(self):
        """Punish consumes x, z, y bounds in that order after one measure draw."""
        seed = 421
        agent = EnsembleState(2, default_params(), [seed])
        [m] = measure_lone(agent, np.array([0.0, 1.0], dtype=complex), 1)
        assert m == 1
        rec = feed(agent, m)

        mirror = np.random.default_rng(seed)
        mirror.random()  # the measurement draw
        draw = mirror.uniform(-math.pi, math.pi, 3)
        assert rec.angles == linalg.RotationAngles(
            phi_x=draw[0], phi_y=draw[2], phi_z=draw[1]
        )
        expected = linalg.rotation_block(rec.angles)
        np.testing.assert_allclose(agent.bases[0], expected, atol=1e-15)
        assert agent.w[0] == pytest.approx(2.0 / 0.9)
        assert agent.n_p[0] == 1

    def test_punish_touches_only_the_two_columns(self):
        agent = EnsembleState(4, default_params(), [9])
        before = agent.bases[0].copy()
        rec = feed(agent, 2)
        assert rec.classification == protocol.PUNISH
        np.testing.assert_array_equal(agent.bases[0][:, 1], before[:, 1])
        np.testing.assert_array_equal(agent.bases[0][:, 3], before[:, 3])
        full = np.eye(4, dtype=complex)
        full[np.ix_((0, 2), (0, 2))] = linalg.rotation_block(rec.angles)
        np.testing.assert_allclose(agent.bases[0], before @ full, atol=1e-15)

    def test_outcome_out_of_range(self):
        agent = EnsembleState(2, default_params(), [5])
        with pytest.raises(OutOfRange):
            feed(agent, 2)
        with pytest.raises(OutOfRange):
            feed(agent, -1)


def test_runaway_search_range_never_overflows_the_sampler():
    """Uncapped w past ~1e6 turns must clamp the draw interval, not crash."""
    agent = EnsembleState(2, default_params(), [2])
    agent.w[0] = 1e300  # deep in the runaway regime
    rec = feed(agent, 1)
    assert rec.classification == protocol.PUNISH
    for phi in (rec.angles.phi_x, rec.angles.phi_y, rec.angles.phi_z):
        assert abs(phi) <= protocol.MAX_DRAW_BOUND
    assert agent.w[0] == 1e300 * default_params().p  # bookkeeping unclamped
    assert np.isfinite(agent.bases[0]).all()


def test_search_range_saturates_at_cap():
    params = default_params(w_cap=1.0)
    agent = EnsembleState(2, params, [13])
    prev = agent.w[0]
    for step in range(40):
        rec = feed(agent, 1 if step % 3 else 0)
        if rec.classification == protocol.PUNISH:
            expected = min(prev * params.p, 1.0)
        else:
            expected = prev * params.r
        assert agent.w[0] == expected  # single multiply either way: exact
        assert agent.w[0] <= 1.0
        prev = agent.w[0]


def test_uncapped_ledger_identity_over_random_run():
    env = env_random(2, 1.0, seed=301)
    params = default_params()
    agent = EnsembleState(2, params, [301])

    def check(state, rec):
        expected = params.w1 * params.r ** int(state.n_r[0]) * params.p ** int(state.n_p[0])
        np.testing.assert_allclose(state.w[0], expected, rtol=1e-10)

    rule = StoppingRule(kind="fixed-budget", budgets=(600,))
    run_stages(agent, harness._black_box([env]), rule, check)


def test_advance_stage_resets_bookkeeping():
    agent = EnsembleState(3, default_params(), [8])
    feed(agent, 0)
    feed(agent, 2)
    k_before = agent.k
    agent.advance_stage(np.array([0]))
    assert agent.stage[0] == 1
    assert agent.w[0] == 1.0
    assert (agent.n_r[0], agent.n_p[0], agent.n_neutral[0]) == (0, 0, 0)
    assert agent.k == k_before  # the global clock keeps running
    agent.advance_stage(np.array([0]))
    with pytest.raises(StageOverflow):
        agent.advance_stage(np.array([0]))


def recorder(seen):
    """An observer that appends the lone member's record of each iteration."""
    return lambda state, rec: seen.append(protocol.first_record(rec))


def test_run_stages_budget_schedule():
    env = env_random(3, 1.0, seed=17)
    agent = EnsembleState(3, default_params(), [17])
    seen = []
    run_stages(
        agent,
        harness._black_box([env]),
        StoppingRule(kind="fixed-budget", budgets=(5, 7)),
        recorder(seen),
    )
    assert [rec.stage for rec in seen] == [0] * 5 + [1] * 7
    assert [rec.k for rec in seen] == list(range(1, 13))
    assert agent.stage[0] == 2
    assert agent.k == 13


def test_threshold_run_on_diagonal_environment():
    """Probe starts on an eigenvector: pure reward, w = r^k, basis frozen."""
    params = default_params()
    agent = EnsembleState(2, params, [99])
    seen = []
    run_stages(agent, harness._black_box([DIAG2]), StoppingRule(w_min=1e-3), recorder(seen))
    expected_len = math.ceil(math.log(1e-3) / math.log(params.r))
    assert len(seen) == expected_len
    assert all(rec.classification == protocol.REWARD for rec in seen)
    np.testing.assert_array_equal(agent.bases[0], np.eye(2))
    ws = np.array([rec.w_after for rec in seen])
    np.testing.assert_allclose(ws, params.r ** np.arange(1, expected_len + 1),
                               rtol=1e-13)


def test_basis_stays_unitary_over_long_runs():
    env = env_random(3, 1.0, seed=5)
    agent = EnsembleState(3, default_params(), [5])
    seen = []
    run_stages(
        agent,
        harness._black_box([env]),
        StoppingRule(kind="fixed-budget", budgets=(700, 700)),
        recorder(seen),
    )
    assert any(rec.classification == protocol.PUNISH for rec in seen)  # it rotated
    gram = agent.bases[0].conj().T @ agent.bases[0]
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_identically_seeded_runs_are_bit_identical():
    rule = StoppingRule(kind="fixed-budget", budgets=(300,))
    env = env_random(2, 1.0, seed=88)
    traces = []
    hashes = []
    for _ in range(2):
        agent = EnsembleState(2, default_params(), [88])
        recs = []
        run_stages(agent, harness._black_box([env]), rule, recorder(recs))
        traces.append(recs)
        hashes.append(protocol.basis_hash(agent.bases[0]))
    assert traces[0] == traces[1]
    assert hashes[0] == hashes[1]


def test_agent_sees_only_the_interaction_callable():
    """The learner must stay blind to the operator it diagonalizes."""
    source = inspect.getsource(protocol)
    for leak in ("environment", "eigensystem", "eig_hermitian", "fidelity"):
        assert leak not in source, f"protocol module references {leak!r}"
    # a bare callable is a fully sufficient black box
    sx = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    unitary = linalg.unitary_from_eigensystem(linalg.eig_hermitian(sx), 1.0)
    agent = EnsembleState(2, default_params(), [1])
    rec = agent.step(lambda members, probes: probes @ unitary.T)
    assert rec.k == 1 and rec.stage.tolist() == [0]


def test_the_command_line_loads_every_package_module():
    """A fresh ``import eigenrl.cli`` loads each module of the package: one
    that no command reaches is a test oracle, and lives in ``tests/``."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import eigenrl.cli\n"
        "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'eigenrl'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    shipped = {"eigenrl"} | {f"eigenrl.{path.stem}" for path in (src / "eigenrl").glob("*.py")
                             if path.stem != "__init__"}
    assert set(out.stdout.split()) == shipped


class TestEnsemble:
    RULE = StoppingRule(kind="threshold", w_min=5e-2, max_iterations=400)

    def run_both(self, dim, seeds, rule):
        """Per-member iteration records of a lockstep run and of lone agents."""
        env = env_random(dim, 1.0, seed=31)
        ensemble = EnsembleState(dim, default_params(w_cap=1.0), seeds)
        steps = {i: [] for i in range(len(seeds))}

        def observer(state, rec):
            for j, i in enumerate(rec.members):
                row = (int(rec.stage[j]), int(rec.outcome[j]), float(rec.w_after[j]))
                steps[i].append((rec.k, *row))

        returned = run_stages(ensemble, harness._black_box([env]), rule, observer)
        agents = []
        for i, seed in enumerate(seeds):
            agent = reference.AgentState(dim, default_params(w_cap=1.0), seed)
            recs = []
            run_stages(agent, reference.lone_black_box(env), rule,
                       lambda a, rec: recs.append(rec))
            assert steps[i] == [(r.k, r.stage, r.outcome, r.w_after) for r in recs]
            agents.append(agent)
        return returned, ensemble, agents

    def test_members_step_like_lone_agents(self):
        returned, ensemble, agents = self.run_both(3, [5, 6, 7, 8, 9], self.RULE)
        assert returned is ensemble and ensemble.finished
        for i, agent in enumerate(agents):
            assert ensemble.bases[i].tobytes() == agent.basis.tobytes()
            assert ensemble.calls[i] == agent.k - 1
        # run ragged: members stop at different iterations
        assert len({agent.k for agent in agents}) > 1

    def test_k_counts_black_box_calls_summed_over_members(self):
        _, ensemble, agents = self.run_both(2, [1, 2, 3], self.RULE)
        assert ensemble.k - 1 == sum(agent.k - 1 for agent in agents)
        fresh = EnsembleState(2, default_params(), [1, 2, 3])
        assert fresh.k == 1 and not fresh.finished

    def test_draw_on_a_cumulative_weight_samples_like_the_scalar_loop(self):
        """u equal to a running sum moves past it, as ``u < acc`` does."""

        class Half:
            def random(self):
                return 0.5

        evolved = np.full(4, 0.5, dtype=complex)  # weights 1/4 each, exactly
        agent = reference.AgentState(4, default_params(), seed=1)
        agent.rng = Half()
        ensemble = EnsembleState(4, default_params(), [1])
        ensemble._refill()
        ensemble._draws[0, ensemble._cursor[0]] = 0.5
        assert agent.measure(evolved) == 2
        assert list(ensemble.measure(returning(evolved[None]))) == [2]

    @pytest.mark.parametrize("width", [32, 33, 256])
    def test_draw_width_changes_no_bits(self, monkeypatch, width):
        monkeypatch.setattr(protocol, "DRAW_BUFFER_MIN", width)
        monkeypatch.setattr(protocol, "DRAW_BUFFER_MAX", width)
        _, ensemble, agents = self.run_both(3, [5, 6, 7, 8, 9], self.RULE)
        assert ensemble._draws.shape[1] == width
        for i, agent in enumerate(agents):
            assert ensemble.bases[i].tobytes() == agent.basis.tobytes()
            assert ensemble.w[i] == agent.w

    @pytest.mark.parametrize(
        "rule", [RULE, StoppingRule(kind="fixed-budget", budgets=(60, 45))],
        ids=["threshold", "fixed-budget"],
    )
    @pytest.mark.parametrize(
        "cut_over, forms",
        [(0, {"_punish_stacked"}), (1, {"_punish_each", "_punish_stacked"}),
         (10**6, {"_punish_each"})],
        ids=["stacked", "default", "each"],
    )
    def test_punish_form_changes_no_bits(self, monkeypatch, cut_over, forms, rule):
        """Punished members updated one at a time, in one stacked update, or
        split by the cut-over, all get the lone agents' bits."""
        monkeypatch.setattr(protocol, "PUNISH_EACH_MAX", cut_over)
        calls = []
        for name in ("_punish_each", "_punish_stacked"):
            def counted(self, who, *rest, form=getattr(EnsembleState, name), name=name):
                calls.append((name, len(who)))
                return form(self, who, *rest)

            monkeypatch.setattr(EnsembleState, name, counted)
        _, ensemble, agents = self.run_both(3, [5, 6, 7, 8, 9], rule)
        for i, agent in enumerate(agents):
            assert ensemble.bases[i].tobytes() == agent.basis.tobytes()
            assert ensemble.w[i] == agent.w
        assert {name for name, _ in calls} == forms
        each = [size for name, size in calls if name == "_punish_each"]
        stacked = [size for name, size in calls if name == "_punish_stacked"]
        assert all(size <= cut_over for size in each)
        assert all(size > cut_over for size in stacked)
        assert max(each + stacked) >= 2  # some iteration punished several members

    @pytest.mark.parametrize(
        "rule", [RULE, StoppingRule(kind="fixed-budget", budgets=(30, 25))],
        ids=["threshold", "fixed-budget"],
    )
    def test_the_black_box_sees_only_changed_probes(self, monkeypatch, rule):
        """A member's probe goes through the black box only at an iteration
        that opens its stage or follows its punishment or a drift control;
        otherwise its cached Born weights serve."""
        monkeypatch.setattr(protocol, "REORTHONORMALIZE_EVERY", 7)
        ensemble = EnsembleState(3, default_params(w_cap=1.0), [5, 6, 7, 8, 9])
        box = harness._black_box([env_random(3, 1.0, seed=31)])
        sent, sizes = [], []

        def spy(members, probes):
            sizes.append(len(members))
            sent.extend((ensemble.iteration, i) for i in members.tolist())
            return box(members, probes)

        due, previous, reasons = [], {}, set()

        def observer(state, rec):
            for j, i in enumerate(rec.members.tolist()):
                t, m = int(rec.stage[j]), int(rec.outcome[j])
                stage, punished = previous.get(i, (None, False))
                why = {"opens": stage != t, "punished": punished,
                       "drift": rec.k > 1 and (rec.k - 1) % 7 == 0}
                if any(why.values()):
                    due.append((rec.k, i))
                    reasons.update(key for key, hit in why.items() if hit)
                previous[i] = (t, m > t)

        run_stages(ensemble, spy, rule, observer)
        assert sent == due
        assert min(sizes) > 0 and reasons == {"opens", "punished", "drift"}
        assert len(due) < (ensemble.k - 1) / 2  # most iterations reuse weights

    @pytest.mark.parametrize("n", [1, 512, 1000, 4096, 5000])
    def test_draw_buffers_keep_to_the_byte_budget(self, n):
        draws = EnsembleState(2, default_params(), list(range(n)))._draws
        assert draws.nbytes <= max(protocol.DRAW_BUFFER_BYTES, 32 * 8 * n)
        assert draws.shape[1] == {1: 256, 512: 256, 1000: 131}.get(n, 32)

    def test_validation(self):
        with pytest.raises(BadDim):
            EnsembleState(1, default_params(), [1])
        ensemble = EnsembleState(2, default_params(), [1, 2])
        with pytest.raises(DimMismatch):
            ensemble.measure(returning(np.zeros((2, 3), dtype=complex)))
        with pytest.raises(OutOfRange):
            ensemble.decide_and_update(np.array([0, 2]))
        ensemble.advance_stage(np.array([0]))
        with pytest.raises(StageOverflow):
            ensemble.advance_stage(np.array([0]))
        assert list(ensemble.active) == [1] and ensemble.calls[0] == 0

    def test_a_finished_ensemble_says_no_member_is_active(self):
        ensemble = EnsembleState(2, default_params(), [1, 2])
        ensemble.advance_stage(np.array([0, 1]))
        assert ensemble.finished
        calls = [
            lambda: ensemble.measure(returning(np.zeros((0, 2), dtype=complex))),
            lambda: ensemble.decide_and_update(np.zeros(0, dtype=np.intp)),
            lambda: ensemble.step(lambda members, probes: probes),
            lambda: feed(ensemble, 0),
        ]
        for call in calls:
            with pytest.raises(StageOverflow, match="no member is active"):
                call()


class TestTraces:
    @pytest.fixture()
    def recorded_run(self, tmp_path):
        env = env_random(2, 1.0, seed=555)
        agent = EnsembleState(2, default_params(), [555])
        records = []
        run_stages(
            agent,
            harness._black_box([env]),
            StoppingRule(kind="fixed-budget", budgets=(50,)),
            recorder(records),
        )
        assert any(r.classification == protocol.PUNISH for r in records)
        path = str(tmp_path / "run.trace")
        protocol.write_trace(path, {"dim": 2, "seed": 555}, records, agent.bases[0])
        return path, records, agent.bases[0]

    def test_roundtrip_and_replay(self, recorded_run):
        path, records, basis = recorded_run
        header, parsed, final = protocol.read_trace(path)
        assert header["format"] == protocol.TRACE_FORMAT
        assert header["dim"] == 2
        assert parsed == records
        assert final == protocol.basis_hash(basis)
        replayed = protocol.replay_basis(2, parsed)
        assert replayed.tobytes() == basis.tobytes()

    def test_tampered_angle_breaks_replay(self, recorded_run, capsys):
        path, _, _ = recorded_run
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            row = json.loads(line)
            if row.get("class") == protocol.PUNISH:
                row["angles"]["phi_x"] += 0.5
                lines[i] = json.dumps(row)
                break
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["replay", "--trace", path]) == 1
        assert capsys.readouterr().err.startswith("replay DIVERGED: ")

    def test_truncated_trace_is_rejected(self, recorded_run):
        path, _, _ = recorded_run
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError):
            protocol.read_trace(path)

    def test_malformed_headers(self, tmp_path):
        bogus = tmp_path / "bad.trace"
        bogus.write_text(
            json.dumps({"format": "not-a-trace", "dim": 2})
            + "\n"
            + json.dumps({"final_sha256": "00"})
            + "\n"
        )
        with pytest.raises(ConfigError):
            protocol.read_trace(str(bogus))
        short = tmp_path / "short.trace"
        short.write_text(json.dumps({"format": protocol.TRACE_FORMAT}) + "\n")
        with pytest.raises(ConfigError):
            protocol.read_trace(str(short))
        nodim = tmp_path / "nodim.trace"
        nodim.write_text(
            json.dumps({"format": protocol.TRACE_FORMAT})
            + "\n"
            + json.dumps({"final_sha256": protocol.basis_hash(np.eye(2, dtype=complex))})
            + "\n"
        )
        with pytest.raises(ConfigError):
            protocol.read_trace(str(nodim))
