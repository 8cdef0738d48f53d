"""References the lockstep engine is checked against bit for bit.

``AgentState`` is the scalar agent loop, one agent and one iteration at a
time, with its own generator, Born sampling, feedback update and stage
bookkeeping; ``reference_experiment`` runs and reduces one repetition at a
time with it, and ``diag_residual`` is the one-matrix form of the stacked
``harness.diag_residual``.  Unlike :mod:`oracles`, these are written with
the package's own primitives (``linalg.rotation_block``,
``linalg.gram_schmidt``, and the engine's black box on a stack of one,
``lone_black_box``), because matching the engine bit for bit needs the
same floating-point operations in the same order.

``feed`` drives the engine itself: it applies a given outcome to a
one-member ``protocol.EnsembleState``, the lone agent of the tests.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from eigenrl import harness, linalg, protocol
from eigenrl.environment import env_random
from eigenrl.errors import BadDim, DimMismatch, NotNormalized, OutOfRange, StageOverflow
from eigenrl.linalg import RotationAngles
from eigenrl.protocol import (
    BORN_TOL,
    MAX_DRAW_BOUND,
    NEUTRAL,
    PUNISH,
    REORTHONORMALIZE_EVERY,
    REWARD,
    IterationRecord,
    RewardParams,
    StoppingRule,
    _apply_block,
)


class AgentState:
    """Mutable learning state: the adapting basis plus feedback bookkeeping.

    ``n_r``, ``n_p`` and ``n_neutral`` count the current stage only; they
    reset together with ``w`` when the stage advances, which keeps the
    ledger identity ``w = w1 * r**n_r * p**n_p`` valid per stage whenever
    the search range is uncapped (``w_cap`` infinite, the default).
    """

    __slots__ = ("dim", "params", "rng", "basis", "w", "stage", "k",
                 "n_r", "n_p", "n_neutral")

    def __init__(self, dim: int, params: RewardParams, seed: int) -> None:
        if dim < 2:
            raise BadDim(f"need dim >= 2, got {dim}")
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
            raise DimMismatch(
                f"state shape {evolved.shape}, expected ({self.dim},)"
            )
        amps = evolved @ self.basis.conj()
        q = amps.real**2 + amps.imag**2
        total = float(q.sum())
        if not abs(total - 1.0) < BORN_TOL:
            raise NotNormalized(f"Born weights sum to {total!r}, not 1")
        u = self.rng.random() * total
        acc = 0.0
        for j in range(self.dim - 1):
            acc += float(q[j])
            if u < acc:
                return j
        return self.dim - 1

    def decide_and_update(self, m: int) -> IterationRecord:
        """Apply the feedback for outcome ``m`` and advance the counter."""
        if not 0 <= m < self.dim:
            raise OutOfRange(f"outcome {m} outside [0, {self.dim})")
        t = self.stage
        k = self.k
        angles = None
        if m == t:
            self.w *= self.params.r
            self.n_r += 1
            classification = REWARD
        elif m > t:
            bound = min(self.w * math.pi, MAX_DRAW_BOUND)
            draw = self.rng.uniform(-bound, bound, 3)  # order: x, z, y
            angles = RotationAngles(
                phi_x=float(draw[0]), phi_y=float(draw[2]), phi_z=float(draw[1])
            )
            _apply_block(self.basis, t, m, linalg.rotation_block(angles))
            self.w = min(self.w * self.params.p, self.params.w_cap)
            self.n_p += 1
            classification = PUNISH
        else:
            self.n_neutral += 1
            classification = NEUTRAL
        self.k = k + 1
        if k % REORTHONORMALIZE_EVERY == 0:
            linalg.gram_schmidt(self.basis)
        return IterationRecord(
            k=k,
            stage=t,
            outcome=m,
            classification=classification,
            angles=angles,
            w_after=self.w,
        )

    def step(self, interact: Callable[[np.ndarray], np.ndarray]) -> IterationRecord:
        """Run one full iteration against the black box."""
        evolved = interact(self.prepare_probe())
        return self.decide_and_update(self.measure(evolved))

    def stage_converged(self, rule: StoppingRule) -> bool:
        done = self.stage_iterations
        if rule.kind == "fixed-budget":
            return done >= rule.budgets[self.stage]
        return self.w < rule.w_min or done >= rule.max_iterations

    def iterations_to_stage_end(self, rule: StoppingRule) -> int:
        """Iterations until the rule can next close the stage."""
        if rule.kind != "fixed-budget" or self.finished:
            return 1
        return rule.budgets[self.stage] - self.stage_iterations

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
            raise StageOverflow(f"no stage after {self.stage} at dim {self.dim}")
        self.stage += 1
        self.w = self.params.w1
        self.n_r = 0
        self.n_p = 0
        self.n_neutral = 0


def feed(agent: protocol.EnsembleState, m: int) -> IterationRecord:
    """Apply outcome ``m`` to a one-member ensemble as if it had been
    measured; an uncapped runaway ``w`` overflows to ``inf`` silently, as
    in ``run_stages``."""
    agent._refill()
    with np.errstate(over="ignore"):
        return protocol.first_record(agent.decide_and_update(np.array([m])))


def diag_residual(basis: np.ndarray, operator: np.ndarray) -> float:
    """Relative Frobenius weight of what D fails to diagonalize away."""
    transformed = basis.conj().T @ operator @ basis
    off = transformed - np.diag(np.diag(transformed))
    denom = float(np.linalg.norm(operator))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(off) / denom)


def lone_black_box(env):
    """``env`` as a one-state black box: the engine's ``harness._black_box``
    on a stack of one."""
    box = harness._black_box([env])
    return lambda psi: box(np.array([0]), psi[None])[0]


def lone_environment(config, i):
    """Repetition ``i``'s environment, built alone: a random operator of its
    own when resampled, else the shared one."""
    if config.resample_env_per_repetition:
        seed = harness.derive_seed(config.seed, i, harness._ENV_SALT)
        return env_random(config.dim, config.tau, seed)
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
    first_records = []
    for i in range(n):
        env = lone_environment(config, i)
        vecs = env.eigensystem_oracle().eigenvectors
        seed = harness.derive_seed(config.seed, i)
        agent = AgentState(d, config.params, seed)
        rows = [(config.w1, 0, np.abs(vecs.conj().T @ agent.basis))]
        last_w = [config.w1]

        def observer(agent_now, rec):
            if i == 0:
                first_records.append(rec)
            last_w[0] = rec.w_after
            if rec.k % stride == 0:
                amp = np.abs(vecs.conj().T @ agent_now.basis)
                rows.append((rec.w_after, rec.stage, amp))

        protocol.run_stages(agent, lone_black_box(env), config.stopping, observer)
        final_amp = np.abs(vecs.conj().T @ agent.basis)
        last_max = rows[-1][2].max(axis=0)
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
                w, stage, amp, mx = last_w[0], d - 1, final_amp, last_max
            w_sum[j] += w
            amp_sum[j] += amp
            max_sum[j] += mx
            stage_min[j] = min(stage_min[j], stage)
        done_w += last_w[0]
        done_amp += final_amp
        done_max += last_max
        finals[i] = final_amp
        residual_sum += diag_residual(agent.basis, env.operator)
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
                "agent_seed": harness.derive_seed(config.seed, 0),
            },
            records=first_records,
            final_basis=agents[0].basis,
        ),
    )
    return result, agents
