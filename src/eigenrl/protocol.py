"""Measurement-feedback learning loop.

An agent holds an orthonormal basis (one column per basis state) and
adapts it from single-shot measurement outcomes alone.  Each iteration at
stage ``t``:

1. prepare the probe, column ``t`` of the basis;
2. send it through the black box (an opaque ``interact`` callable — the
   only channel to the hidden operator);
3. express the returned state in the current basis and sample one outcome
   ``m`` from the Born weights;
4. update: ``m == t`` is a reward (the search range ``w`` shrinks by
   ``r``), ``m > t`` is a punishment (columns ``t`` and ``m`` are mixed by
   a random two-level rotation with angles uniform in ``[-w pi, w pi]``,
   then ``w`` grows by ``p = nu / r``, saturating at ``w_cap`` when one is
   configured), and ``m < t`` refers to a column fixed in an earlier
   stage, so nothing changes.

A stage ends when its stopping rule fires; the search range then resets
and the next column is learned.  The last column needs no stage of its
own, being pinned by unitarity.

There is one engine: :class:`EnsembleState` advances many independently
seeded agents in lockstep with stacked array operations, and every check,
draw and update lives there.  :class:`AgentState` is its one-member view,
which keeps the one-agent interface (a scalar black box, one outcome per
call, :class:`IterationRecord` results) and records traces.
:func:`run_stages` drives both.

Punish angles are drawn in the fixed order x, z, y from the per-agent
generator, using the pre-update ``w``, so runs are reproducible and a
recorded trace can be replayed bit for bit.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from . import linalg
from .errors import (
    BadDim,
    ConfigError,
    DimMismatch,
    NotNormalized,
    OutOfRange,
    StageOverflow,
)
from .linalg import RotationAngles

#: cadence (in iterations) of the drift-control re-orthonormalization
REORTHONORMALIZE_EVERY = 10_000

#: ceiling on the punish draw interval: beyond a million full turns the
#: angles are uniform mod 2pi anyway, and an unbounded interval would
#: eventually overflow the sampler on runaway uncapped runs.  ``w`` itself
#: is never clamped by this, so the bookkeeping identity stays exact.
MAX_DRAW_BOUND = 1e6 * math.pi

#: largest tolerated deviation of the Born weights' sum from 1
BORN_TOL = 1e-9

#: doubles pre-drawn per ensemble member
DRAW_BUFFER = 32

#: doubles one iteration can use: the measurement draw and three punish angles
_DRAWS_PER_ITERATION = 4

#: positions of phi_x, phi_y, phi_z among the three punish draws (x, z, y)
_DRAWN_XYZ = np.array([[0], [2], [1]])

#: the punish angles of an iteration that punished no member
_NO_ANGLES = np.empty((3, 0))

TRACE_FORMAT = "eigenrl-trace-1"

REWARD = "reward"
PUNISH = "punish"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class RewardParams:
    """Feedback constants: shrink factor ``r``, growth product ``nu = r p``.

    ``w_cap`` optionally saturates the search range on punishment.  The
    default (infinity) keeps the bare multiplicative update, for which
    ``w = w1 * r**n_r * p**n_p`` holds exactly.  A cap of 1 is the natural
    saturated choice: at ``w = 1`` the punish angles already span the full
    ``[-pi, pi]`` interval, so larger ``w`` only relabels the same rotation
    distribution while making recovery from a long punish streak
    arbitrarily slow.
    """

    r: float
    nu: float
    w1: float = 1.0
    w_cap: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"r must lie in (0, 1), got {self.r}")
        if self.nu < 1.0:
            raise ConfigError(f"nu must be >= 1, got {self.nu}")
        if self.w1 <= 0.0:
            raise ConfigError(f"w1 must be positive, got {self.w1}")
        if not self.w_cap > 0.0:
            raise ConfigError(f"w_cap must be positive, got {self.w_cap}")

    @property
    def p(self) -> float:
        """Punishment growth factor ``nu / r`` (> 1)."""
        return self.nu / self.r


@dataclass(frozen=True)
class StoppingRule:
    """When a stage is considered done.

    ``threshold`` stops once ``w`` drops below ``w_min`` (with
    ``max_iterations`` as a per-stage safety cap); ``fixed-budget`` runs
    exactly ``budgets[stage]`` iterations per stage.
    """

    kind: str = "threshold"
    budgets: tuple[int, ...] | None = None
    w_min: float = 1e-3
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "fixed-budget"):
            raise ConfigError(f"unknown stopping kind {self.kind!r}")
        if self.kind == "fixed-budget":
            if not self.budgets:
                raise ConfigError("fixed-budget stopping needs a budgets list")
            object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
            if any(b < 1 for b in self.budgets):
                raise ConfigError(f"budgets must be positive, got {self.budgets}")
        elif self.budgets is not None:
            raise ConfigError("threshold stopping takes no budgets")
        if self.w_min <= 0.0:
            raise ConfigError(f"w_min must be positive, got {self.w_min}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """What one iteration did; the punish angles make replay possible."""

    k: int
    stage: int
    outcome: int
    classification: str
    angles: RotationAngles | None
    w_after: float


def _apply_block(basis: np.ndarray, t: int, m: int, block: np.ndarray) -> None:
    """Right-multiply the embedded two-level block onto columns t and m."""
    basis[:, (t, m)] = basis[:, (t, m)] @ block


@dataclass(frozen=True, eq=False)
class EnsembleRecord:
    """What one lockstep iteration did, for the members that ran it."""

    k: int
    members: np.ndarray  # (n,) indices of the members that ran iteration k
    stage: np.ndarray    # (n,) stage each of them ran it in
    outcome: np.ndarray  # (n,)
    w_after: np.ndarray  # (n,)
    #: (3, h) rows phi_x, phi_y, phi_z of the h punished members, in the
    #: order of ``members[outcome > stage]``
    angles: np.ndarray


class EnsembleState:
    """Independently seeded agents advanced together, one iteration at a time.

    Member ``i`` is the agent ``AgentState(dim, params, seeds[i])``: how
    many members run beside it changes none of its bits.  Each step evolves
    the probes of all running members in one batched black-box call and
    applies the feedback in stacked form, and each stacked form gives the
    bits of the one-agent arithmetic.  Each member reads its doubles in
    order from a small buffer pre-drawn from its own generator, which gives
    the same values as drawing them one at a time.

    A member runs until its own stopping rule has closed its last stage,
    so threshold runs end at different iterations; ``active`` lists the
    members still running.  They all share the iteration counter
    ``iteration``, so drift control runs at the same ``k`` as for a lone
    agent.  ``k`` keeps the meaning of ``AgentState.k`` summed over
    members: one more than the black-box calls made.
    """

    def __init__(self, dim: int, params: RewardParams, seeds: list[int]) -> None:
        if dim < 2:
            raise BadDim(f"need dim >= 2, got {dim}")
        n = len(seeds)
        self.dim = dim
        self.params = params
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.bases = np.tile(np.eye(dim, dtype=np.complex128), (n, 1, 1))
        self.w = np.full(n, params.w1)
        self.stage = np.zeros(n, dtype=np.intp)
        self.n_r = np.zeros(n, dtype=np.int64)
        self.n_p = np.zeros(n, dtype=np.int64)
        self.n_neutral = np.zeros(n, dtype=np.int64)
        self.iteration = 1
        self.calls = np.zeros(n, dtype=np.int64)  # set as each member finishes
        self.active = np.arange(n)
        # selects the active members; a slice (a view, no copy) while all run
        self._running: slice | np.ndarray = slice(None)
        self._draws = np.empty((n, DRAW_BUFFER))
        self._cursor = np.full(n, DRAW_BUFFER)
        self._row_index = np.arange(dim)[None, :, None]

    @property
    def k(self) -> int:
        return 1 + int(self.calls.sum()) + (self.iteration - 1) * len(self.active)

    @property
    def finished(self) -> bool:
        return len(self.active) == 0

    def _refill(self) -> None:
        """Give every running member the doubles of at least one more iteration."""
        low = self._cursor[self._running] > DRAW_BUFFER - _DRAWS_PER_ITERATION
        for i in self.active[low]:
            row, start = self._draws[i], self._cursor[i]
            kept = DRAW_BUFFER - start
            row[:kept] = row[start:]
            self.rngs[i].random(out=row[kept:])
            self._cursor[i] = 0

    def prepare_probes(self) -> np.ndarray:
        """Column ``stage`` of each running member's basis, shape (n, dim)."""
        return self.bases[self.active, :, self.stage[self.active]]

    def measure(self, evolved: np.ndarray) -> np.ndarray:
        """One outcome per running member, sampled from its Born weights."""
        members = self.active
        if evolved.shape != (len(members), self.dim):
            raise DimMismatch(
                f"states shape {evolved.shape}, expected ({len(members)}, {self.dim})"
            )
        amps = (evolved[:, None, :] @ self.bases[self._running].conj())[:, 0]
        q = amps.real**2 + amps.imag**2
        total = q.sum(axis=1)
        drift = np.abs(total - 1.0)
        if not drift.max() < BORN_TOL:
            j = int(np.argmax(~(drift < BORN_TOL)))
            raise NotNormalized(
                f"Born weights of member {members[j]} sum to {total[j]!r}, not 1"
            )
        u = self._draws[members, self._cursor[members]] * total
        self._cursor[self._running] += 1
        # the outcome is the first index whose running sum exceeds u
        return (np.cumsum(q[:, :-1], axis=1) <= u[:, None]).sum(axis=1)

    def decide_and_update(self, outcomes: np.ndarray) -> EnsembleRecord:
        """Apply each running member's feedback and advance the shared counter."""
        members, running = self.active, self._running
        if outcomes.shape != members.shape or not (
            0 <= outcomes.min() and outcomes.max() < self.dim
        ):
            raise OutOfRange(f"outcomes outside [0, {self.dim})")
        t = self.stage[members]
        w = self.w[running]
        reward = outcomes == t
        punish = outcomes > t
        w_after = np.where(reward, w * self.params.r, w)
        angles = _NO_ANGLES
        hit = np.nonzero(punish)[0]
        if hit.size:
            who = members[hit]
            bound = np.minimum(w[hit] * math.pi, MAX_DRAW_BOUND)
            low = -bound
            cursor = self._cursor[who]
            # drawn in the order x, z, y; gathered as the rows x, y, z
            draws = self._draws[who, cursor + _DRAWN_XYZ]
            self._cursor[who] = cursor + 3
            angles = low + (bound - low) * draws
            blocks = linalg.rotation_blocks(angles)
            cols = np.array((t[hit], outcomes[hit])).T[:, None, :]
            at = (who[:, None, None], self._row_index, cols)  # (n, dim, 2) pairs
            self.bases[at] = self.bases[at] @ blocks
            w_after[hit] = np.minimum(w[hit] * self.params.p, self.params.w_cap)
        self.w[running] = w_after
        self.n_r[running] += reward
        self.n_p[running] += punish
        self.n_neutral[running] += outcomes < t
        k = self.iteration
        self.iteration = k + 1
        if k % REORTHONORMALIZE_EVERY == 0:
            for i in members:
                linalg.gram_schmidt(self.bases[i])
        return EnsembleRecord(
            k=k, members=members, stage=t, outcome=outcomes, w_after=w_after,
            angles=angles,
        )

    def step(
        self, interact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> EnsembleRecord:
        """Run one iteration of every running member against the black box.

        ``interact(members, probes)`` evolves row ``j`` of ``probes`` as the
        black box of member ``members[j]`` would.
        """
        self._refill()
        evolved = interact(self.active, self.prepare_probes())
        return self.decide_and_update(self.measure(evolved))

    def stage_converged(self, rule: StoppingRule) -> np.ndarray:
        """Mask over ``active``: whose current stage has met the rule."""
        running = self._running
        done = self.n_r[running] + self.n_p[running] + self.n_neutral[running]
        if rule.kind == "fixed-budget":
            return done >= np.asarray(rule.budgets)[self.stage[running]]
        return (self.w[running] < rule.w_min) | (done >= rule.max_iterations)

    def advance_stage(self, members: np.ndarray) -> None:
        """Fix the current column of each listed member and start its next one."""
        if (self.stage[members] >= self.dim - 1).any():
            raise StageOverflow(f"no stage after {self.dim - 2} at dim {self.dim}")
        self.stage[members] += 1
        self.w[members] = self.params.w1
        self.n_r[members] = 0
        self.n_p[members] = 0
        self.n_neutral[members] = 0
        last = members[self.stage[members] == self.dim - 1]
        if last.size:
            self.calls[last] = self.iteration - 1
            self.active = self.active[self.stage[self.active] < self.dim - 1]
            self._running = self.active

    def advance_converged(self, rule: StoppingRule) -> None:
        """Advance every member whose stage the rule says is done."""
        converged = self.stage_converged(rule)
        if converged.any():
            self.advance_stage(self.active[converged])


def _lone(field: str, kind: type) -> property:
    """The one member's entry of an ensemble array, as a plain number."""
    return property(lambda agent: kind(getattr(agent._one, field)[0]))


class AgentState:
    """One agent: the one-member view of an :class:`EnsembleState`.

    It holds no arithmetic of its own; the checks, draws and updates are
    the ensemble's.  ``n_r``, ``n_p`` and ``n_neutral`` count the current
    stage only; they reset together with ``w`` when the stage advances,
    which keeps the ledger identity ``w = w1 * r**n_r * p**n_p`` valid per
    stage whenever the search range is uncapped (``w_cap`` infinite, the
    default).
    """

    __slots__ = ("dim", "params", "_one")

    def __init__(self, dim: int, params: RewardParams, seed: int) -> None:
        self._one = EnsembleState(dim, params, [seed])
        self.dim = dim
        self.params = params

    @property
    def basis(self) -> np.ndarray:
        """The adapting basis, a writable view."""
        return self._one.bases[0]

    w = _lone("w", float)
    stage = _lone("stage", int)
    n_r = _lone("n_r", int)
    n_p = _lone("n_p", int)
    n_neutral = _lone("n_neutral", int)

    @w.setter
    def w(self, value: float) -> None:
        self._one.w[0] = value

    @property
    def k(self) -> int:
        """The number of the next iteration: one more than the calls made."""
        return self._one.iteration

    @property
    def finished(self) -> bool:
        """True once every stage has been learned."""
        return self._one.finished

    def measure(self, evolved: np.ndarray) -> int:
        """Sample one outcome from the Born weights of ``evolved`` in the basis."""
        self._one._refill()
        return int(self._one.measure(evolved[None])[0])

    def decide_and_update(self, m: int) -> IterationRecord:
        """Apply the feedback for outcome ``m`` and advance the counter.

        An uncapped runaway ``w`` overflows to ``inf``, the value of the
        bare update, without a warning.
        """
        self._one._refill()
        with np.errstate(over="ignore"):
            rec = self._one.decide_and_update(np.array([m]))
        t, m = int(rec.stage[0]), int(rec.outcome[0])
        angles = None
        if m == t:
            classification = REWARD
        elif m > t:
            x, y, z = rec.angles[:, 0].tolist()
            angles = RotationAngles(phi_x=x, phi_y=y, phi_z=z)
            classification = PUNISH
        else:
            classification = NEUTRAL
        return IterationRecord(
            k=rec.k,
            stage=t,
            outcome=m,
            classification=classification,
            angles=angles,
            w_after=float(rec.w_after[0]),
        )

    def step(self, interact: Callable[[np.ndarray], np.ndarray]) -> IterationRecord:
        """Run one full iteration against the black box."""
        evolved = interact(self._one.prepare_probes()[0])
        return self.decide_and_update(self.measure(evolved))

    def advance_stage(self) -> None:
        """Fix the current column and start learning the next one."""
        self._one.advance_stage(np.zeros(1, dtype=np.intp))

    def advance_converged(self, rule: StoppingRule) -> None:
        """Advance the stage if the rule says it is done."""
        self._one.advance_converged(rule)


def validate_rule(dim: int, params: RewardParams, rule: StoppingRule) -> None:
    if rule.kind == "fixed-budget":
        if len(rule.budgets) < dim - 1:
            raise ConfigError(
                f"{dim - 1} stages need {dim - 1} budgets, got {len(rule.budgets)}"
            )
    elif rule.w_min >= params.w1:
        raise ConfigError(
            f"w_min {rule.w_min} must be below the initial range {params.w1}"
        )


def run_stages(
    state: AgentState | EnsembleState,
    interact: Callable,
    rule: StoppingRule,
    observer: Callable | None = None,
) -> AgentState | EnsembleState:
    """Drive an agent or an ensemble through all ``dim - 1`` stages.

    ``state`` is an :class:`AgentState`, with ``interact(psi)``, or an
    :class:`EnsembleState`, with the batched ``interact(members, probes)``.
    ``observer(state, record)`` sees every iteration before the stopping
    rule is applied.  Returns ``state``, finished; its ``k - 1`` is the
    number of black-box calls made.  An uncapped runaway ``w`` overflows
    to ``inf``, the value of the bare update, without a warning.
    """
    validate_rule(state.dim, state.params, rule)
    with np.errstate(over="ignore"):
        while not state.finished:
            rec = state.step(interact)
            if observer is not None:
                observer(state, rec)
            state.advance_converged(rule)
    return state


# ---------------------------------------------------------------------------
# trace files: newline-delimited JSON, one record per iteration


def basis_hash(basis: np.ndarray) -> str:
    """SHA-256 of the row-major complex128 bytes of the basis."""
    return hashlib.sha256(np.ascontiguousarray(basis).tobytes()).hexdigest()


def write_trace(
    path: str,
    header: dict,
    records: Iterable[IterationRecord],
    final_basis: np.ndarray,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": TRACE_FORMAT, **header}) + "\n")
        for rec in records:
            row = {
                "k": rec.k,
                "stage": rec.stage,
                "m": rec.outcome,
                "class": rec.classification,
                "angles": None if rec.angles is None else asdict(rec.angles),
                "w_after": rec.w_after,
            }
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"final_sha256": basis_hash(final_basis)}) + "\n")


def read_trace(path: str) -> tuple[dict, list[IterationRecord], str]:
    """Parse a trace file; raises ConfigError if it is unreadable, truncated,
    or holds a record that cannot be replayed at the header's ``dim``."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in (raw.strip() for raw in fh) if line]
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise ConfigError(f"trace line is not valid JSON: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError("trace too short: need a header and a final hash")
    if not all(isinstance(row, dict) for row in rows):
        raise ConfigError("every trace line must be a JSON object")
    header, body, footer = rows[0], rows[1:-1], rows[-1]
    if header.get("format") != TRACE_FORMAT:
        raise ConfigError(f"unknown trace format: {header.get('format')!r}")
    dim = header.get("dim")
    if not isinstance(dim, int) or not linalg.MIN_DIM <= dim <= linalg.MAX_DIM:
        raise ConfigError(f"trace header lacks a usable dim: {dim!r}")
    if "final_sha256" not in footer:
        raise ConfigError("trace truncated: final hash line missing")
    records = []
    for row in body:
        try:
            angles = row["angles"]
            if angles is not None:
                angles = RotationAngles(**{key: float(v) for key, v in angles.items()})
            rec = IterationRecord(
                k=int(row["k"]),
                stage=int(row["stage"]),
                outcome=int(row["m"]),
                classification=str(row["class"]),
                angles=angles,
                w_after=float(row["w_after"]),
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad trace record {row!r}: {exc}") from exc
        if rec.classification == PUNISH and not (
            0 <= rec.stage < rec.outcome < dim
            and angles is not None
            and all(math.isfinite(v) for v in vars(angles).values())
        ):
            raise ConfigError(f"punish record {row!r} cannot be replayed at dim {dim}")
        records.append(rec)
    return dict(header), records, str(footer["final_sha256"])


def replay_basis(dim: int, records: Iterable[IterationRecord]) -> np.ndarray:
    """Re-apply recorded punishments; reproduces the live basis bit for bit."""
    basis = np.eye(dim, dtype=np.complex128)
    for rec in records:
        if rec.classification == PUNISH:
            _apply_block(
                basis, rec.stage, rec.outcome, linalg.rotation_block(rec.angles)
            )
        if rec.k % REORTHONORMALIZE_EVERY == 0:
            linalg.gram_schmidt(basis)
    return basis


def replay_trace(path: str) -> bool:
    """True iff the trace's recorded final hash matches the replayed basis."""
    header, records, recorded = read_trace(path)
    return basis_hash(replay_basis(header["dim"], records)) == recorded
