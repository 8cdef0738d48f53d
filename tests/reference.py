"""References the ensemble engine is checked against bit for bit.

``AgentState`` is the scalar agent loop, one agent and one iteration at a
time, with its own generator, Born sampling, feedback update and stage
bookkeeping, and ``run_agent`` its own stage loop; ``reference_experiment``
runs and reduces one repetition at a time with them, and ``diag_residual``
is the one-matrix form of the stacked ``linalg.diag_residual``.  Unlike
:mod:`oracles`, these are written with the package's own primitives
(``linalg.rotation_blocks`` on a stack of one, and the engine's black box,
``linalg.apply_unitaries``, on a stack of one, ``lone_black_box``),
because matching the engine bit for bit needs the same floating-point
operations in the same order: live runs, ``replay_basis`` and this
reference build every punish block with the one builder.  The
reference imports it by name, so a test that patches
``linalg.rotation_blocks`` checks the engine against the shipped builder.
The other products are the reference's own one-matrix forms of the named
``linalg`` products the engine and the fold call: the Born amplitudes of
``AgentState`` for ``linalg.born_weights``, ``apply_block``, which
multiplies one 2x2 block onto two columns of one basis, for
``linalg.rotate_columns``, which rotates a stack of bases at once, and
``|V^H D|`` in ``reference_experiment`` for ``linalg.overlaps``.

``derive_seed`` is NumPy's own seed derivation, one ``SeedSequence`` per
repetition, against which the engine's one-pass ``seeding.derive_seeds``
is checked.

``feed`` drives the engine itself: it applies a given outcome to the next
iteration of a one-member ``protocol.EnsembleState``, the lone agent of the
tests, through the engine's own update.  The injected iteration consumes
one measurement double, as a measured one does, so a punishment's angles
are the three doubles after it.

Both record what they do as ``protocol.Decisions`` columns, the engine's
one form of a member's decisions.  ``classes`` reads each iteration's class
off its stage and outcome, and ``column_bytes`` gives every bit of the
columns, for tests that compare them: ``==`` on floats takes -0.0 for 0.0.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from eigenrl import harness, protocol
from eigenrl.environment import env_random
from eigenrl.errors import ConfigError, EigenrlError
from eigenrl.linalg import rotation_blocks
from eigenrl.protocol import (
    BORN_TOL,
    MAX_DRAW_BOUND,
    NEUTRAL,
    PUNISH,
    REWARD,
    Decisions,
    RewardParams,
    StoppingRule,
)


def derive_seed(root: int, index: int, salt: int = harness._REP_SALT) -> int:
    """Repetition ``index``'s seed in a run seeded ``root``, as NumPy derives it."""
    seq = np.random.SeedSequence([root, salt, index])
    return int(seq.generate_state(1, np.uint64)[0])


def apply_block(basis: np.ndarray, t: int, m: int, block: np.ndarray) -> None:
    """Right-multiply the embedded two-level block onto columns t and m."""
    basis[:, (t, m)] = basis[:, (t, m)] @ block


class AgentState:
    """Mutable learning state: the adapting basis plus feedback bookkeeping.

    ``n_r``, ``n_p`` and ``n_neutral`` count the current stage only; they
    reset together with ``w`` when the stage advances, which keeps the
    ledger identity ``w = w1 * r**n_r * p**n_p`` valid per stage whenever
    the search range is uncapped (``w_cap`` infinite, the default).
    ``decisions`` holds every iteration the agent has run.
    """

    __slots__ = ("dim", "params", "rng", "basis", "w", "stage", "k",
                 "n_r", "n_p", "n_neutral", "decisions")

    def __init__(self, dim: int, params: RewardParams, seed: int) -> None:
        if dim < 2:
            raise ConfigError(f"need dim >= 2, got {dim}")
        self.dim = dim
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.basis = np.eye(dim, dtype=np.complex128)
        self.w = params.w1
        self.stage = 0
        self.k = 1
        self.n_r = 0
        self.n_p = 0
        self.n_neutral = 0
        self.decisions = Decisions()

    @property
    def stage_iterations(self) -> int:
        """Iterations spent in the current stage."""
        return self.n_r + self.n_p + self.n_neutral

    def prepare_probe(self) -> np.ndarray:
        """Column ``stage`` of the basis (a read-only view)."""
        return self.basis[:, self.stage]

    def measure(self, evolved: np.ndarray) -> int:
        """Sample one outcome from the Born weights of ``evolved`` in the basis."""
        if evolved.shape != (self.dim,):
            raise EigenrlError(
                f"state shape {evolved.shape}, expected ({self.dim},)"
            )
        amps = evolved @ self.basis.conj()
        q = amps.real**2 + amps.imag**2
        total = float(q.sum())
        if not abs(total - 1.0) < BORN_TOL:
            raise EigenrlError(f"Born weights sum to {total!r}, not 1")
        u = self.rng.random() * total
        acc = 0.0
        for j in range(self.dim - 1):
            acc += float(q[j])
            if u < acc:
                return j
        return self.dim - 1

    def decide_and_update(self, m: int) -> str:
        """Apply the feedback for outcome ``m``, record it in ``decisions``
        and advance the counter; returns the outcome's class."""
        if not 0 <= m < self.dim:
            raise ValueError(f"outcome {m} outside [0, {self.dim})")
        t = self.stage
        if m == t:
            self.w *= self.params.r
            self.n_r += 1
            classification = REWARD
        elif m > t:
            bound = min(self.w * math.pi, MAX_DRAW_BOUND)
            phi_x, phi_z, phi_y = self.rng.uniform(-bound, bound, 3).tolist()  # order: x, z, y
            self.decisions.angles.append([phi_x, phi_y, phi_z])
            phi = np.array([[phi_x], [phi_y], [phi_z]])
            apply_block(self.basis, t, m, rotation_blocks(phi)[0])
            self.w = min(self.w * self.params.p, self.params.w_cap)
            self.n_p += 1
            classification = PUNISH
        else:
            self.n_neutral += 1
            classification = NEUTRAL
        self.k += 1
        self.decisions.stage.append(t)
        self.decisions.outcome.append(m)
        self.decisions.w_after.append(self.w)
        return classification

    def step(self, interact: Callable[[np.ndarray], np.ndarray]) -> str:
        """Run one full iteration against the black box."""
        evolved = interact(self.prepare_probe())
        return self.decide_and_update(self.measure(evolved))

    def stage_converged(self, rule: StoppingRule) -> bool:
        done = self.stage_iterations
        if rule.kind == "fixed-budget":
            return done >= rule.budgets[self.stage]
        return self.w < rule.w_min or done >= rule.max_iterations

    @property
    def finished(self) -> bool:
        """True once every stage has been learned."""
        return self.stage >= self.dim - 1

    def advance_converged(self, rule: StoppingRule) -> None:
        """Advance the stage if the rule says it is done."""
        if self.stage_converged(rule):
            self.advance_stage()

    def advance_stage(self) -> None:
        """Fix the current column and start learning the next one."""
        if self.stage >= self.dim - 1:
            raise EigenrlError(f"no stage after {self.stage} at dim {self.dim}")
        self.stage += 1
        self.w = self.params.w1
        self.n_r = 0
        self.n_p = 0
        self.n_neutral = 0


def run_agent(agent: AgentState, interact, rule: StoppingRule, observer=None) -> AgentState:
    """The reference's own stage loop: one iteration at a time, the rule
    checked after each; ``observer(agent)`` sees the agent after every
    iteration, which is the last entry of its ``decisions``."""
    while not agent.finished:
        agent.step(interact)
        if observer is not None:
            observer(agent)
        agent.advance_converged(rule)
    return agent


def classes(decisions: Decisions) -> list[str]:
    """Each iteration's class: a reward at its own stage's outcome, a
    punishment above it, neutral below."""
    return [REWARD if m == t else PUNISH if m > t else NEUTRAL
            for t, m in zip(decisions.stage, decisions.outcome)]


def column_bytes(decisions: Decisions) -> tuple[bytes, bytes, bytes, bytes]:
    """The bytes of every column, as int64 and float64 arrays."""
    return (np.array(decisions.stage, dtype=np.int64).tobytes(),
            np.array(decisions.outcome, dtype=np.int64).tobytes(),
            np.array(decisions.w_after, dtype=np.float64).tobytes(),
            np.array(decisions.angles, dtype=np.float64).tobytes())


def feed(agent: protocol.EnsembleState, m: int, decisions: Decisions | None = None) -> Decisions:
    """Apply outcome ``m`` to the next iteration of a one-member ensemble:
    the draw ``m`` on the cumulative weights 1, 2, ..., dim - 1 reaches
    ``m`` of them.  Returns ``decisions``, or new columns, with that
    iteration appended.  An uncapped runaway ``w`` overflows to ``inf``
    silently, as in ``run_stages``."""
    members = agent.active
    t = float(agent.stage[0])
    cumulative = np.arange(agent.dim, dtype=float)[None]
    cumulative[0, 0] = -np.inf
    agent._refill(members, members)
    with np.errstate(over="ignore"):
        rec = agent._update(members, members, np.array([[float(m)]]), cumulative,
                            np.array([[t, t + 1]]))
    decisions = Decisions() if decisions is None else decisions
    decisions.add_segment(rec)
    return decisions


def diag_residual(basis: np.ndarray, operator: np.ndarray) -> float:
    """Relative Frobenius weight of what D fails to diagonalize away."""
    transformed = basis.conj().T @ operator @ basis
    off = transformed - np.diag(np.diag(transformed))
    denom = float(np.linalg.norm(operator))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(off) / denom)


def lone_black_box(env):
    """A one-operator ``env`` as a one-state black box: the engine's
    ``harness._black_box``, and so ``linalg.apply_unitaries``, on a stack of
    one."""
    box = harness._black_box(env)
    return lambda psi: box(np.array([0]), psi[None])[0]


def lone_environment(config, i):
    """Repetition ``i``'s environment, built alone as a stack of one: a
    random operator of its own when resampled, else the shared one."""
    if config.resample_env_per_repetition:
        seed = derive_seed(config.seed, i, harness._ENV_SALT)
        return env_random(config.dim, config.tau, [seed])
    return harness.build_environment(config)


def reference_experiment(config):
    """The loop that ran one repetition at a time, kept as the reference.

    Returns the result it aggregates, with repetition 0's trace, and every
    repetition's finished agent.
    """
    n, d = config.repetitions, config.dim
    stride = config.record_every
    w_sum, amp_sum, max_sum, stage_min = [], [], [], []
    done_w, done_amp, done_max = 0.0, np.zeros((d, d)), np.zeros(d)
    finals = np.empty((n, d, d))
    residual_sum = 0.0
    agents = []
    for i in range(n):
        env = lone_environment(config, i)
        vecs = env.eigensystem.eigenvectors[0]
        seed = derive_seed(config.seed, i)
        agent = AgentState(d, config.params, seed)
        rows = [(config.w1, 0, np.abs(vecs.conj().T @ agent.basis))]

        def observer(agent_now):
            if (agent_now.k - 1) % stride == 0:
                amp = np.abs(vecs.conj().T @ agent_now.basis)
                rows.append((agent_now.w, agent_now.stage, amp))

        run_agent(agent, lone_black_box(env), config.stopping, observer)
        last_w = agent.decisions.w_after[-1]
        final_amp = np.abs(vecs.conj().T @ agent.basis)
        last_max = final_amp.max(axis=0)
        while len(w_sum) < len(rows):  # grid grows: seed with finished reps
            w_sum.append(done_w)
            amp_sum.append(done_amp.copy())
            max_sum.append(done_max.copy())
            stage_min.append(d - 1 if i else d)
        for j in range(len(w_sum)):
            if j < len(rows):
                w, stage, amp = rows[j]
                mx = amp.max(axis=0)
            else:  # carry this rep forward
                w, stage, amp, mx = last_w, d - 1, final_amp, last_max
            w_sum[j] += w
            amp_sum[j] += amp
            max_sum[j] += mx
            stage_min[j] = min(stage_min[j], stage)
        done_w += last_w
        done_amp += final_amp
        done_max += last_max
        finals[i] = final_amp
        residual_sum += diag_residual(agent.basis, env.operators[0])
        agents.append(agent)
    if config.fidelity_mode == "paper":
        fidelity = np.stack(amp_sum).max(axis=1).T / n
    else:
        fidelity = np.stack(max_sum).T / n
    metadata = {
        "format": harness.RESULTS_FORMAT,
        "config": harness.config_to_dict(config),
        "code_version": harness.code_version(),
        "longest_run": max(agent.k - 1 for agent in agents),
    }
    result = harness.ExperimentResult(
        ks=np.arange(len(w_sum)) * stride,
        stages=np.asarray(stage_min, dtype=np.int64),
        fidelity_curves=np.minimum(fidelity, 1.0),
        search_curve=np.asarray(w_sum) / n,
        per_repetition_final=finals,
        diag_residual=residual_sum / n,
        metadata=metadata,
        trace=harness.Trace(
            header={
                "dim": d,
                "rep_index": 0,
                "root_seed": config.seed,
                "agent_seed": derive_seed(config.seed, 0),
            },
            decisions=agents[0].decisions,
            final_basis=agents[0].basis,
        ),
    )
    return result, agents
