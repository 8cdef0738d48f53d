"""Agent feedback loop: reward/punish bookkeeping, traces, determinism."""
import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import reference
from eigenrl import harness, linalg, protocol
from eigenrl.cli import main
from eigenrl.environment import env_from_matrix, env_random
from eigenrl.errors import ConfigError, EigenrlError
from eigenrl.protocol import (
    EnsembleState,
    RewardParams,
    StoppingRule,
    run_stages,
)
from reference import classes, column_bytes, feed

DIAG2 = env_from_matrix(np.diag([-1.0, 1.0]).astype(complex), tau=1.0)


def default_params(**kw):
    merged = {"r": 0.9, "nu": 2.0, **kw}
    return RewardParams(**merged)


#: the default threshold rule, which every dim can run: the rule of the
#: ensembles that ``feed`` drives, whose stages only close by hand
THRESHOLD = StoppingRule()


def tally(decisions, stage=None):
    """How many of the iterations in ``decisions``, or of those at ``stage``
    if given, are rewards, and how many punishments."""
    kinds = [kind for kind, t in zip(classes(decisions), decisions.stage) if stage in (None, t)]
    return kinds.count(protocol.REWARD), kinds.count(protocol.PUNISH)


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
            {"nu": math.nan},
            {"w1": math.nan},
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
        with pytest.raises(ConfigError, match="^w_min must be positive, got nan$"):
            StoppingRule(w_min=math.nan)
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
    agent = EnsembleState(3, default_params(), THRESHOLD, [1])
    np.testing.assert_array_equal(agent.bases[0], np.eye(3))
    assert agent.w[0] == 1.0
    assert agent.stage[0] == 0
    assert agent.k == 1
    assert agent.calls[0] == 0
    assert agent.rule is THRESHOLD
    with pytest.raises(ConfigError, match=r"^dim must be an integer in \[2, 64\], got 1$"):
        EnsembleState(1, default_params(), THRESHOLD, [1])


@pytest.mark.parametrize("dim, rule", [
    (3, StoppingRule(kind="fixed-budget", budgets=(5,))),
    (2, StoppingRule(w_min=1.0)),
    (2, StoppingRule(w_min=2.0)),
], ids=["too-few-budgets", "w_min-at-w1", "w_min-above-w1"])
def test_a_rule_the_ensemble_cannot_run_is_refused_at_construction(dim, rule):
    """The rule ``validate_rule`` rejects is refused when the ensemble is
    built, before any round can reach the black box."""
    with pytest.raises(ConfigError):
        protocol.validate_rule(dim, default_params(), rule)
    with pytest.raises(ConfigError):
        EnsembleState(dim, default_params(), rule, [1])


def test_an_ensemble_without_seeds_is_refused_at_construction():
    with pytest.raises(ConfigError, match="^an ensemble needs at least one seed$"):
        EnsembleState(2, default_params(), THRESHOLD, [])


def returning(evolved):
    """A black box that returns the states ``evolved``, whatever it is sent."""
    return lambda members, probes: evolved


#: one iteration in the only stage of a dim-2 run
ONE_ITERATION = StoppingRule(kind="fixed-budget", budgets=(1,))


def test_measure_validates_shape():
    agent = EnsembleState(2, default_params(), ONE_ITERATION, [3])
    with pytest.raises(EigenrlError, match=r"^states shape \(1, 3\), expected \(1, 2\)$") as exc:
        agent.advance(returning(np.zeros((1, 3), dtype=complex)))
    assert exc.type is EigenrlError  # a runtime failure, not bad input


def measure_lone(seed, basis, evolved, times):
    """The outcomes of ``times`` iterations of a lone dim-3 agent in stage 1,
    with basis ``basis`` and a black box that returns ``evolved``.  Lying in
    the span of columns 0 and 1, ``evolved`` gives neutral outcomes and
    rewards only, so the basis never moves."""
    rule = StoppingRule(kind="fixed-budget", budgets=(1, times))
    agent = EnsembleState(3, default_params(), rule, [seed])
    agent.bases[0] = basis
    agent.advance_stage(np.array([0]))
    seen = protocol.Decisions()
    run_stages(agent, returning(evolved[None]), recorder(seen))
    assert set(classes(seen)) <= {protocol.NEUTRAL, protocol.REWARD}
    return seen.outcome


def test_measure_matches_born_weights():
    evolved = np.array([math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j), 0.0])
    hits = sum(measure_lone(2024, np.eye(3, dtype=complex), evolved, 20000))
    assert hits / 20000 == pytest.approx(0.7, abs=0.015)


def test_measure_uses_adapted_basis():
    # after rotating the basis, outcome weights follow the new columns
    basis = np.eye(3, dtype=complex)
    basis[:2, :2] = oracles.rotation_block(phi_x=0.9, phi_y=-0.4, phi_z=1.7)
    hits = sum(measure_lone(77, basis, basis[:, 1], 2000))
    assert hits == 2000  # evolved state sits exactly on column 1


def test_born_weight_check_raises_under_optimize():
    """The normalization check is an explicit raise, not an assert, that a
    drift of 2e-6 and a NaN sum fail, run plain and under ``-O``."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys, numpy as np\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from eigenrl.protocol import EnsembleState, RewardParams, StoppingRule\n"
        "from eigenrl.errors import EigenrlError\n"
        "params = RewardParams(r=0.9, nu=2.0)\n"
        "rule = StoppingRule(kind='fixed-budget', budgets=(1,))\n"
        "box = lambda states: lambda members, probes: np.array(states, dtype=complex)\n"
        "print(sys.flags.optimize)\n"
        "for states in ([[1.0, 1.0]], [[1.0, 0.0], [0.6, 0.6]], [[1 + 1e-6, 0.0]],\n"
        "               [[np.nan, 0.0]]):\n"
        "    try:\n"
        "        EnsembleState(2, params, rule, range(len(states))).advance(box(states))\n"
        "    except EigenrlError as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
        "    else:\n"
        "        print('passed')\n"
    )
    for flags, optimize in (([], "0"), (["-O"], "1")):
        out = subprocess.run([sys.executable, *flags, "-c", script],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        flag, *caught = out.stdout.splitlines()
        assert flag == optimize and len(caught) == 4
        for line, member in zip(caught, (0, 1, 0)):
            assert re.fullmatch(f"EigenrlError: Born weights of member {member} sum to [0-9.]+, "
                                "not 1", line)
        assert caught[-1] == "EigenrlError: Born weights of member 0 sum to nan, not 1"


class TestFeedback:
    def test_reward_shrinks_range_only(self):
        agent = EnsembleState(2, default_params(), THRESHOLD, [5])
        rec = feed(agent, 0)
        assert classes(rec) == [protocol.REWARD]
        assert rec.angles == []
        assert agent.w[0] == pytest.approx(0.9)
        assert tally(rec) == (1, 0)
        np.testing.assert_array_equal(agent.bases[0], np.eye(2))

    def test_neutral_changes_nothing_but_the_counter(self):
        agent = EnsembleState(3, default_params(), THRESHOLD, [5])
        agent.advance_stage(np.array([0]))
        rec = feed(agent, 0)
        assert classes(rec) == [protocol.NEUTRAL]
        assert agent.w[0] == 1.0
        assert agent.calls[0] - sum(tally(rec)) == 1
        np.testing.assert_array_equal(agent.bases[0], np.eye(3))

    def test_punish_draw_order_and_block(self):
        """Punish consumes x, z, y bounds in that order after one measure draw."""
        seed = 421
        agent = EnsembleState(2, default_params(), ONE_ITERATION, [seed])
        # every draw reaches outcome 1, a punishment at stage 0
        rec = protocol.Decisions()
        rec.add_segment(agent.advance(returning(np.array([[0.0, 1.0]], dtype=complex))))
        assert (rec.outcome, classes(rec)) == ([1], [protocol.PUNISH])  # k = 1 alone

        mirror = np.random.default_rng(seed)
        mirror.random()  # the measurement draw
        phi_x, phi_z, phi_y = mirror.uniform(-math.pi, math.pi, 3)
        assert np.array(rec.angles).tobytes() == np.array([phi_x, phi_y, phi_z]).tobytes()
        expected = oracles.rotation_block(phi_x, phi_y, phi_z)
        np.testing.assert_allclose(agent.bases[0], expected, atol=1e-15)
        assert rec.w_after == [pytest.approx(2.0 / 0.9)]  # the stage then closes
        assert agent.finished and agent.calls[0] == 1

    def test_punish_touches_only_the_two_columns(self):
        agent = EnsembleState(4, default_params(), THRESHOLD, [9])
        before = agent.bases[0].copy()
        rec = feed(agent, 2)
        assert classes(rec) == [protocol.PUNISH]
        np.testing.assert_array_equal(agent.bases[0][:, 1], before[:, 1])
        np.testing.assert_array_equal(agent.bases[0][:, 3], before[:, 3])
        full = np.eye(4, dtype=complex)
        (phi,) = rec.angles
        full[np.ix_((0, 2), (0, 2))] = oracles.rotation_block(*phi)
        np.testing.assert_allclose(agent.bases[0], before @ full, atol=1e-15)


def test_runaway_search_range_never_overflows_the_sampler():
    """Uncapped w past ~1e6 turns must clamp the draw interval, not crash."""
    agent = EnsembleState(2, default_params(), THRESHOLD, [2])
    agent.w[0] = 1e300  # deep in the runaway regime
    rec = feed(agent, 1)
    assert classes(rec) == [protocol.PUNISH]
    for phi in rec.angles[0]:
        assert abs(phi) <= protocol.MAX_DRAW_BOUND
    assert agent.w[0] == 1e300 * default_params().p  # bookkeeping unclamped
    assert np.isfinite(agent.bases[0]).all()


def test_search_range_saturates_at_cap():
    params = default_params(w_cap=1.0)
    agent = EnsembleState(2, params, THRESHOLD, [13])
    prev = agent.w[0]
    for step in range(40):
        rec = feed(agent, 1 if step % 3 else 0)
        if classes(rec) == [protocol.PUNISH]:
            expected = min(prev * params.p, 1.0)
        else:
            expected = prev * params.r
        assert agent.w[0] == expected  # single multiply either way: exact
        assert agent.w[0] <= 1.0
        prev = agent.w[0]


def test_uncapped_ledger_identity_over_random_run():
    env = env_random(2, 1.0, [301])
    params = default_params()
    agent = EnsembleState(2, params, StoppingRule(kind="fixed-budget", budgets=(600,)), [301])
    seen = protocol.Decisions()

    def check(state, rec):
        # the one stage's iterations so far, and w after the last of them
        seen.add_segment(rec)
        rewards, punishments = tally(seen)
        expected = params.w1 * params.r ** rewards * params.p ** punishments
        np.testing.assert_allclose(seen.w_after[-1], expected, rtol=1e-10)

    run_stages(agent, harness._black_box(env), check)
    assert len(seen.stage) == 600


def test_advance_stage_resets_bookkeeping():
    agent = EnsembleState(3, default_params(), THRESHOLD, [8])
    seen = feed(agent, 2, feed(agent, 0))
    assert (*tally(seen), agent.calls[0]) == (1, 1, 2)
    k_before = agent.k
    agent.advance_stage(np.array([0]))
    assert agent.stage[0] == 1
    assert agent.w[0] == 1.0
    # the iterations of the stage now open
    assert tally(seen, agent.stage[0]) == (0, 0)
    assert agent.k == k_before  # the global clock keeps running
    feed(agent, 0, seen)
    assert classes(seen)[-1] == protocol.NEUTRAL
    assert (*tally(seen, agent.stage[0]), agent.k) == (0, 0, k_before + 1)
    agent.advance_stage(np.array([0]))
    with pytest.raises(EigenrlError, match="^no stage after 1 at dim 3$") as exc:
        agent.advance_stage(np.array([0]))
    assert exc.type is EigenrlError


def recorder(seen):
    """An observer that appends the lone member's iterations to the columns
    ``seen``."""
    return lambda state, rec: seen.add_segment(rec)


def test_run_stages_budget_schedule():
    env = env_random(3, 1.0, [17])
    agent = EnsembleState(3, default_params(), StoppingRule(kind="fixed-budget", budgets=(5, 7)),
                          [17])
    seen, ks = protocol.Decisions(), []

    def observe(state, rec):
        seen.add_segment(rec)
        ks.extend(range(rec.k[0], rec.k[0] + rec.length[0]))  # the iterations it ran

    run_stages(agent, harness._black_box(env), observe)
    assert seen.stage == [0] * 5 + [1] * 7
    assert ks == list(range(1, 13))
    assert len(seen.outcome) == len(seen.w_after) == 12
    assert agent.stage[0] == 2
    assert agent.k == 13


def test_threshold_run_on_diagonal_environment():
    """Probe starts on an eigenvector: pure reward, w = r^k, basis frozen."""
    params = default_params()
    agent = EnsembleState(2, params, StoppingRule(w_min=1e-3), [99])
    seen = protocol.Decisions()
    run_stages(agent, harness._black_box(DIAG2), recorder(seen))
    expected_len = math.ceil(math.log(1e-3) / math.log(params.r))
    assert len(seen.stage) == expected_len
    assert classes(seen) == [protocol.REWARD] * expected_len
    np.testing.assert_array_equal(agent.bases[0], np.eye(2))
    ws = np.array(seen.w_after)
    np.testing.assert_allclose(ws, params.r ** np.arange(1, expected_len + 1),
                               rtol=1e-13)


def test_basis_stays_unitary_over_long_runs():
    env = env_random(3, 1.0, [5])
    agent = EnsembleState(3, default_params(),
                          StoppingRule(kind="fixed-budget", budgets=(700, 700)), [5])
    seen = protocol.Decisions()
    run_stages(agent, harness._black_box(env), recorder(seen))
    assert protocol.PUNISH in classes(seen)  # it rotated
    gram = agent.bases[0].conj().T @ agent.bases[0]
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_identically_seeded_runs_are_bit_identical():
    rule = StoppingRule(kind="fixed-budget", budgets=(300,))
    env = env_random(2, 1.0, [88])
    traces = []
    hashes = []
    for _ in range(2):
        agent = EnsembleState(2, default_params(), rule, [88])
        recs = protocol.Decisions()
        run_stages(agent, harness._black_box(env), recorder(recs))
        traces.append(column_bytes(recs))
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
    unitary = linalg.unitary_from_eigensystem(linalg.eig_hermitian(sx[None]), 1.0)[0]
    agent = EnsembleState(2, default_params(), ONE_ITERATION, [1])
    rec = agent.advance(lambda members, probes: probes @ unitary.T)
    assert rec.k.tolist() == [1] and rec.stage.tolist() == [0]


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

    def run_both(self, dim, seeds, rule, see=None):
        """Per-member decisions of an ensemble run and of lone agents, the
        same bits; ``see(record)``, if given, also sees every round's record."""
        env = env_random(dim, 1.0, [31])
        ensemble = EnsembleState(dim, default_params(w_cap=1.0), rule, seeds)
        steps = [protocol.Decisions() for _ in seeds]

        def observer(state, rec):
            if see is not None:
                see(rec)
            for j, i in enumerate(rec.members.tolist()):
                steps[i].add_segment(rec, j)

        returned = run_stages(ensemble, harness._black_box(env), observer)
        agents = []
        for i, seed in enumerate(seeds):
            agent = reference.AgentState(dim, default_params(w_cap=1.0), seed)
            reference.run_agent(agent, reference.lone_black_box(env), rule)
            assert column_bytes(steps[i]) == column_bytes(agent.decisions)
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
        fresh = EnsembleState(2, default_params(), self.RULE, [1, 2, 3])
        assert fresh.k == 1 and not fresh.finished

    def test_draw_on_a_cumulative_weight_samples_like_the_scalar_loop(self):
        """u equal to a running sum moves past it, as ``u < acc`` does."""

        class Half:
            def random(self):
                return 0.5

        evolved = np.full(4, 0.5, dtype=complex)  # weights 1/4 each, exactly
        agent = reference.AgentState(4, default_params(), seed=1)
        agent.rng = Half()
        ensemble = EnsembleState(4, default_params(),
                                 StoppingRule(kind="fixed-budget", budgets=(1, 1, 1)), [1])
        ensemble._refill(ensemble.active, ensemble.active)
        ensemble._draws[0, ensemble._cursor[0]] = 0.5
        assert agent.measure(evolved) == 2
        got = protocol.Decisions()
        got.add_segment(ensemble.advance(returning(evolved[None])))
        assert got.outcome == [2]

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
    @pytest.mark.parametrize("form", ["stacked", "default", "each"])
    def test_punish_form_changes_no_bits(self, monkeypatch, form, rule):
        """Each round's punished members go through one update, an empty one
        when it punishes none.  Its rotation blocks may come from the
        stacked arithmetic on a stack of at least two, each from the
        closed-form oracle alone, or as shipped (the stacked arithmetic, a
        lone block too); every form gives the bits of the scalar reference,
        for no punished member, for one and for several."""
        shipped = linalg.rotation_blocks
        build = {
            "stacked": lambda phi: shipped(np.repeat(phi, 2, axis=1))[::2].copy(),
            "default": shipped,
            "each": lambda phi: np.array(
                [oracles.rotation_block(*phi[:, j].tolist())
                 for j in range(phi.shape[1])], dtype=np.complex128).reshape(-1, 2, 2),
        }[form]
        sizes = []

        def counted(phi):
            sizes.append(phi.shape[1])
            return build(phi)

        monkeypatch.setattr(linalg, "rotation_blocks", counted)
        punished = []
        _, ensemble, agents = self.run_both(
            3, [5, 6, 7, 8, 9], rule,
            see=lambda rec: punished.append(rec.angles.shape[1]),
        )
        for i, agent in enumerate(agents):
            assert ensemble.bases[i].tobytes() == agent.basis.tobytes()
            assert ensemble.w[i] == agent.w
        assert sizes == punished  # one update per round
        assert 0 in punished and 1 in punished and max(punished) >= 2  # none, one, several

    @pytest.mark.parametrize(
        "rule", [RULE, StoppingRule(kind="fixed-budget", budgets=(30, 25))],
        ids=["threshold", "fixed-budget"],
    )
    def test_the_black_box_sees_only_changed_probes(self, rule):
        """A member's probe goes through the black box only at an iteration
        that opens its stage or follows its punishment, which is always the
        first of a round's segment; otherwise its cached Born weights
        serve."""
        ensemble = EnsembleState(3, default_params(w_cap=1.0), rule, [5, 6, 7, 8, 9])
        box = harness._black_box(env_random(3, 1.0, [31]))
        sent, sizes = [], []

        def spy(members, probes):
            sizes.append(len(members))
            sent.extend((ensemble.rounds, i) for i in members.tolist())
            return box(members, probes)

        due, previous, reasons = [], {}, set()

        def observer(state, rec):
            for j, i in enumerate(rec.members.tolist()):
                segment = protocol.Decisions()
                segment.add_segment(rec, j)
                for t, kind in zip(segment.stage, classes(segment)):
                    stage, punished = previous.get(i, (None, False))
                    why = {"opens": stage != t, "punished": punished}
                    if any(why.values()):
                        due.append((state.rounds - 1, i))
                        reasons.update(key for key, hit in why.items() if hit)
                    previous[i] = (t, kind == protocol.PUNISH)

        run_stages(ensemble, spy, observer)
        assert sent == due
        assert min(sizes) > 0 and reasons == {"opens", "punished"}
        assert len(due) < (ensemble.k - 1) / 2  # most iterations reuse weights

    def test_a_round_runs_each_member_to_its_next_event(self):
        """At 16 members a run of ``fig6_random2q``'s operator, on shortened
        budgets, takes fewer than half as many rounds as a member runs
        iterations: a round advances each member to its next punishment,
        stage close or window end, not by one iteration."""
        config = harness.load_config(str(Path(__file__).resolve().parents[1]
                                         / "configs" / "fig6_random2q.json"))
        rule = StoppingRule(kind="fixed-budget", budgets=(400, 250, 200))
        ensemble = EnsembleState(config.dim, config.params, rule,
                                 [reference.derive_seed(config.seed, i) for i in range(16)])
        rounds = []
        run_stages(ensemble, harness._black_box(harness.build_environment(config)),
                   lambda state, rec: rounds.append(int(rec.length.max())))
        assert ensemble.rounds == len(rounds) < ensemble.calls.max() / 2 == 425
        assert max(rounds) > 1 and ensemble.k - 1 == 16 * 850

    @pytest.mark.parametrize(
        "constants, rule",
        [
            ({"ROUND_ELEMENTS": 1}, StoppingRule(kind="fixed-budget", budgets=(60, 40, 30))),
            ({"LEAD_BYTES": 2000}, StoppingRule(kind="fixed-budget", budgets=(400, 250, 200))),
            ({}, StoppingRule(kind="threshold", w_min=0.05, max_iterations=300)),
        ],
        ids=["lockstep", "ragged-waiting", "threshold-stops"],
    )
    def test_records_own_their_arrays(self, monkeypatch, constants, rule):
        """Every array of every round's record keeps, to the end of the run,
        the bytes it had when the observer saw it: no record aliases engine
        state that a later round writes, so an observer may keep records and
        read them rounds later.  ``before`` is None in exactly the rounds of
        a one-iteration window."""
        for name, value in constants.items():
            monkeypatch.setattr(protocol, name, value)
        config = harness.load_config(str(Path(__file__).resolve().parents[1]
                                         / "configs" / "fig6_random2q.json"))
        ensemble = EnsembleState(config.dim, config.params, rule,
                                 [reference.derive_seed(config.seed, i) for i in range(16)])
        seen = []

        def fields(rec):
            return {field.name: None if getattr(rec, field.name) is None
                    else getattr(rec, field.name).tobytes() for field in dataclasses.fields(rec)}

        run_stages(ensemble, harness._black_box(harness.build_environment(config)),
                   lambda state, rec: seen.append((rec, fields(rec))))
        lockstep = constants == {"ROUND_ELEMENTS": 1}
        for rec, held in seen:
            assert fields(rec) == held and (rec.before is None) == lockstep
        punished = sum(int(rec.punished.sum()) for rec, _ in seen)
        waited = sum(len(rec.members) < len(ensemble.bases) for rec, _ in seen)
        assert punished > len(seen) / 2 and (waited > 0) == (not lockstep)

    @pytest.mark.parametrize("n", [1, 512, 1000, 4096, 5000])
    def test_draw_buffers_keep_to_the_byte_budget(self, n):
        draws = EnsembleState(2, default_params(), THRESHOLD, list(range(n)))._draws
        assert draws.nbytes <= max(protocol.DRAW_BUFFER_BYTES, 32 * 8 * n)
        assert draws.shape[1] == {1: 256, 512: 256, 1000: 256, 4096: 64, 5000: 52}[n]

    def test_validation(self):
        with pytest.raises(ConfigError, match=r"^dim must be an integer in \[2, 64\], got 1$"):
            EnsembleState(1, default_params(), THRESHOLD, [1])
        ensemble = EnsembleState(2, default_params(), ONE_ITERATION, [1, 2])
        with pytest.raises(EigenrlError,
                           match=r"^states shape \(2, 3\), expected \(2, 2\)$") as exc:
            ensemble.advance(returning(np.zeros((2, 3), dtype=complex)))
        assert exc.type is EigenrlError
        ensemble.advance_stage(np.array([0]))
        with pytest.raises(EigenrlError, match="^no stage after 0 at dim 2$") as exc:
            ensemble.advance_stage(np.array([0]))
        assert exc.type is EigenrlError
        assert list(ensemble.active) == [1] and ensemble.calls[0] == 0

    def test_a_member_past_its_stage_end_is_closed(self):
        """A member whose calls overran its stage's end is closed, so a
        skipped close cannot leave it running without end in lockstep."""
        for rule in (StoppingRule(kind="fixed-budget", budgets=(5, 6)), THRESHOLD):
            ensemble = EnsembleState(3, default_params(), rule, [1, 2, 3])
            end = ensemble._stage_end[0]
            ensemble.calls[:] = [end - 1, end, end + 1]
            assert ensemble.stage_converged(slice(None)).tolist() == [False, True, True]

    def test_a_finished_ensemble_says_no_member_is_active(self):
        for rule in (ONE_ITERATION, self.RULE):
            ensemble = EnsembleState(2, default_params(), rule, [1, 2])
            ensemble.advance_stage(np.array([0, 1]))
            assert ensemble.finished
            with pytest.raises(EigenrlError,
                               match="^no member is active: every stage is done$") as exc:
                ensemble.advance(lambda members, probes: probes)
            assert exc.type is EigenrlError


class TestTraces:
    @pytest.fixture()
    def recorded_run(self, tmp_path):
        env = env_random(2, 1.0, [555])
        agent = EnsembleState(2, default_params(), StoppingRule(kind="fixed-budget", budgets=(50,)),
                              [555])
        decisions = protocol.Decisions()
        run_stages(agent, harness._black_box(env), recorder(decisions))
        assert protocol.PUNISH in classes(decisions)
        path = str(tmp_path / "run.trace")
        protocol.write_trace(path, {"dim": 2, "seed": 555}, decisions, agent.bases[0])
        return path, decisions, agent.bases[0]

    def test_roundtrip_and_replay(self, recorded_run):
        path, decisions, basis = recorded_run
        header, parsed, final = protocol.read_trace(path)
        assert header["format"] == protocol.TRACE_FORMAT
        assert header["dim"] == 2
        assert column_bytes(parsed) == column_bytes(decisions)
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
