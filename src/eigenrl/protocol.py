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
draw and update lives there; :func:`run_stages` drives it, and a lone agent
is a one-member ensemble.  :func:`first_record` turns the first listed
member's row of an :class:`EnsembleRecord` into a trace line's
:class:`IterationRecord`, and :func:`replay_basis` replays a trace.  Every
punishment, whether one member is punished or many, live or replayed, goes
through the one stacked column update, :func:`_rotate`.

In the protocol each iteration sends a fresh probe through the black box,
but a member's probe, and so the distribution of its outcome, changes only
when it is punished, when the drift control re-orthonormalizes its basis or
when it starts a stage.  The engine therefore keeps each member's Born
weights from the last such change and evolves only the changed probes; the
iteration counts ``k`` and ``calls`` still count every iteration, one use
of the black box each.  A fixed-budget stage can end only where its budget
runs out, and :func:`run_stages` applies such a rule there alone.

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

#: bytes of pre-drawn doubles per ensemble; each member's share is clamped
#: to [DRAW_BUFFER_MIN, DRAW_BUFFER_MAX] doubles.  Wider rows refill less
#: often; the cap keeps a small ensemble, such as a lone agent, from
#: drawing up to a MiB ahead.
DRAW_BUFFER_BYTES = 1 << 20
DRAW_BUFFER_MIN = 32
DRAW_BUFFER_MAX = 256

#: doubles one iteration can use: the measurement draw and three punish angles
_DRAWS_PER_ITERATION = 4

#: positions of phi_x, phi_y, phi_z among the three punish draws (x, z, y)
_DRAWN_XYZ = np.array([[0], [2], [1]])

#: the punish angles of an iteration that punished no member
_NO_ANGLES = np.empty((3, 0))

TRACE_FORMAT = "eigenrl-trace-1"
_RECORD_KEYS = frozenset({"k", "stage", "m", "class", "angles", "w_after"})
_ANGLE_KEYS = frozenset({"phi_x", "phi_y", "phi_z"})
_HEX_DIGITS = frozenset("0123456789abcdef")

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


def _rotate(bases: np.ndarray, who: np.ndarray, t: np.ndarray, m: np.ndarray,
            angles: np.ndarray) -> None:
    """Rotate columns ``t[j]`` and ``m[j]`` of ``bases[who[j]]`` in place by
    the two-level rotation of ``angles[:, j]`` (rows phi_x, phi_y, phi_z)."""
    blocks = linalg.rotation_blocks(angles)
    cols = np.array((t, m)).T[:, None, :]
    at = (who[:, None, None], np.arange(bases.shape[1])[:, None], cols)  # (h, dim, 2)
    bases[at] = bases[at] @ blocks


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


def _classify(t: int, m: int) -> str:
    """What outcome ``m`` is at stage ``t``."""
    return REWARD if m == t else PUNISH if m > t else NEUTRAL


def first_record(rec: EnsembleRecord) -> IterationRecord:
    """What the first listed member did in ``rec``, in plain Python numbers;
    if it was punished, its angles are column 0 of ``rec.angles``."""
    t, m = int(rec.stage[0]), int(rec.outcome[0])
    return IterationRecord(
        k=rec.k,
        stage=t,
        outcome=m,
        classification=_classify(t, m),
        angles=RotationAngles(*rec.angles[:, 0].tolist()) if m > t else None,
        w_after=float(rec.w_after[0]),
    )


class EnsembleState:
    """Independently seeded agents advanced together, one iteration at a time.

    Member ``i`` is the lone agent seeded ``seeds[i]``: how many members run
    beside it changes none of its bits.  Each step evolves the stale probes
    (below) in one batched black-box call and applies the feedback in
    stacked form, which gives the bits of the one-agent arithmetic however
    many members it punishes.  Each member reads its
    doubles in order from a row of ``_draws`` pre-drawn from its own
    generator, which gives the same values as drawing them one at a time;
    the rows share ``DRAW_BUFFER_BYTES``, within the per-member bounds.

    A member runs until its own stopping rule has closed its last stage,
    so threshold runs end at different iterations; ``active`` lists the
    members still running.  They all share the iteration counter
    ``iteration``, so drift control runs at the same ``k`` as for a lone
    agent.  ``k`` is one more than the iterations run, summed over members,
    and ``calls[i]`` is member ``i``'s iterations once it finishes.
    ``n_r``, ``n_p`` and ``n_neutral`` count the current stage only, so
    ``w = w1 * r**n_r * p**n_p`` holds per stage while ``w_cap`` is
    infinite, the default.

    ``changed[i]`` is the iteration that last changed member ``i``'s basis
    (a punishment or the drift control), 0 if none has, so an observer can
    tell which members' bases moved since it last looked.

    Each member's cumulative Born weights are cached from the last time its
    probe changed.  A member is stale, and its probe goes through the black
    box again at its next step, once it is punished, re-orthonormalized by
    the drift control or starts a stage (every member starts stale); the
    others draw their outcome from the cached weights, which are the bits
    that evolving the same probe again would give.  ``k`` and ``calls``
    count every iteration all the same.

    ``reached_w_min[t]`` and ``hit_max_iterations[t]`` count the members
    whose threshold stage ``t`` closed by meeting ``w_min`` and by reaching
    the ``max_iterations`` cap.
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
        self.changed = np.zeros(n, dtype=np.int64)
        self.active = np.arange(n)
        # selects the active members; a slice (a view, no copy) while all run
        self._running: slice | np.ndarray = slice(None)
        width = min(max(DRAW_BUFFER_BYTES // (8 * n), DRAW_BUFFER_MIN), DRAW_BUFFER_MAX)
        self._draws = np.empty((n, width))
        self._cursor = np.full(n, width)
        # cumulative Born weights of every outcome but the last, and their sum
        self._cumulative = np.empty((n, dim - 1))
        self._total = np.empty(n)
        self._stale = np.ones(n, dtype=bool)
        self.reached_w_min = np.zeros(dim - 1, dtype=np.int64)
        self.hit_max_iterations = np.zeros(dim - 1, dtype=np.int64)

    @property
    def k(self) -> int:
        return 1 + int(self.calls.sum()) + (self.iteration - 1) * len(self.active)

    @property
    def finished(self) -> bool:
        return len(self.active) == 0

    def _members(self) -> np.ndarray:
        """The running members; an error once every member has finished."""
        if not len(self.active):
            raise StageOverflow("no member is active: every stage is done")
        return self.active

    def _refill(self) -> None:
        """Give every running member the doubles of at least one more iteration."""
        width = self._draws.shape[1]
        low = self._cursor[self._running] > width - _DRAWS_PER_ITERATION
        for i in self.active[low]:
            row, start = self._draws[i], self._cursor[i]
            kept = width - start
            row[:kept] = row[start:]
            self.rngs[i].random(out=row[kept:])
            self._cursor[i] = 0

    def measure(
        self, interact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """One outcome per running member, sampled from the Born weights of
        its evolved probe; only the stale members' probes go through
        ``interact`` (see :meth:`step`), the others reuse their weights."""
        members, running = self._members(), self._running
        stale = members[self._stale[running]]
        if stale.size:
            evolved = interact(stale, self.bases[stale, :, self.stage[stale]])
            if evolved.shape != (len(stale), self.dim):
                raise DimMismatch(
                    f"states shape {evolved.shape}, expected ({len(stale)}, {self.dim})"
                )
            amps = (evolved[:, None, :] @ self.bases[stale].conj())[:, 0]
            q = amps.real**2 + amps.imag**2
            total = q.sum(axis=1)
            drift = np.abs(total - 1.0)
            if not drift.max() < BORN_TOL:
                j = int(np.argmax(~(drift < BORN_TOL)))
                raise NotNormalized(
                    f"Born weights of member {stale[j]} sum to {total[j]!r}, not 1"
                )
            self._cumulative[stale] = np.cumsum(q[:, :-1], axis=1)
            self._total[stale] = total
            self._stale[stale] = False
        u = self._draws[members, self._cursor[members]] * self._total[running]
        self._cursor[running] += 1
        # the outcome is the first index whose running sum exceeds u
        return (self._cumulative[running] <= u[:, None]).sum(axis=1)

    def decide_and_update(self, outcomes: np.ndarray) -> EnsembleRecord:
        """Apply each running member's feedback and advance the shared counter."""
        members, running = self._members(), self._running
        if outcomes.shape != members.shape or not (
            0 <= outcomes.min() and outcomes.max() < self.dim
        ):
            raise OutOfRange(f"outcomes outside [0, {self.dim})")
        k = self.iteration
        t = self.stage[members]
        w = self.w[running]
        reward = outcomes == t
        punish = outcomes > t
        w_after = np.where(reward, w * self.params.r, w)
        angles = _NO_ANGLES
        hit = np.nonzero(punish)[0]
        if hit.size:
            who = members[hit]
            angles = self._punish(who, t[hit], outcomes[hit], w[hit])
            self.changed[who] = k
            self._stale[who] = True
            w_after[hit] = np.minimum(w[hit] * self.params.p, self.params.w_cap)
        self.w[running] = w_after
        self.n_r[running] += reward
        self.n_p[running] += punish
        self.n_neutral[running] += outcomes < t
        self.iteration = k + 1
        if k % REORTHONORMALIZE_EVERY == 0:
            for i in members:
                linalg.gram_schmidt(self.bases[i])
            self.changed[members] = k
            self._stale[members] = True
        return EnsembleRecord(
            k=k, members=members, stage=t, outcome=outcomes, w_after=w_after,
            angles=angles,
        )

    def _punish(self, who: np.ndarray, t: np.ndarray, m: np.ndarray,
                w: np.ndarray) -> np.ndarray:
        """Rotate columns ``t`` and ``m`` of each listed member's basis by
        angles drawn from its row; returns them, rows phi_x, phi_y, phi_z."""
        bound = np.minimum(w * math.pi, MAX_DRAW_BOUND)
        low = -bound
        cursor = self._cursor[who]
        # drawn in the order x, z, y; gathered as the rows x, y, z
        draws = self._draws[who, cursor + _DRAWN_XYZ]
        self._cursor[who] = cursor + 3
        angles = low + (bound - low) * draws
        _rotate(self.bases, who, t, m, angles)
        return angles

    def step(
        self, interact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> EnsembleRecord:
        """Run one iteration of every running member against the black box.

        ``interact(members, probes)`` evolves row ``j`` of ``probes`` as the
        black box of member ``members[j]`` would; it sees the probes of the
        stale members only, and is not called when none is stale.
        """
        self._refill()
        return self.decide_and_update(self.measure(interact))

    def stage_converged(self, rule: StoppingRule) -> np.ndarray:
        """Mask over ``active``: whose current stage has met the rule."""
        running = self._running
        done = self.n_r[running] + self.n_p[running] + self.n_neutral[running]
        if rule.kind == "fixed-budget":
            return done >= np.asarray(rule.budgets)[self.stage[running]]
        return (self.w[running] < rule.w_min) | (done >= rule.max_iterations)

    def iterations_to_stage_end(self, rule: StoppingRule) -> int:
        """Iterations until the rule can next close a running member's stage:
        the fewest left in a fixed budget, else 1, as a threshold can close
        a stage at any iteration."""
        if rule.kind != "fixed-budget" or self.finished:
            return 1
        running = self._running
        done = self.n_r[running] + self.n_p[running] + self.n_neutral[running]
        return int((np.asarray(rule.budgets)[self.stage[running]] - done).min())

    def advance_stage(self, members: np.ndarray) -> None:
        """Fix the current column of each listed member and start its next one."""
        if (self.stage[members] >= self.dim - 1).any():
            raise StageOverflow(f"no stage after {self.dim - 2} at dim {self.dim}")
        self.stage[members] += 1
        self._stale[members] = True
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
        """Advance every member whose stage the rule says is done, counting
        how each closed threshold stage ended."""
        converged = self.stage_converged(rule)
        if converged.any():
            members = self.active[converged]
            if rule.kind == "threshold":
                met = self.w[members] < rule.w_min
                stages = self.stage[members]
                self.reached_w_min += np.bincount(stages[met], minlength=self.dim - 1)
                self.hit_max_iterations += np.bincount(stages[~met], minlength=self.dim - 1)
            self.advance_stage(members)


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
    state: EnsembleState,
    interact: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rule: StoppingRule,
    observer: Callable[[EnsembleState, EnsembleRecord], None] | None = None,
) -> EnsembleState:
    """Drive every member of an ensemble through all ``dim - 1`` stages.

    ``interact`` is the batched black box of :meth:`EnsembleState.step`.
    ``observer(state, record)`` sees every :class:`EnsembleRecord` before
    the stopping rule is applied.  The rule is applied at the iterations
    ``state.iterations_to_stage_end`` names: every one under a threshold,
    only where a budget runs out under fixed budgets.  Returns ``state``,
    finished; its ``k - 1`` is the number of iterations run, summed over
    members.  An uncapped runaway ``w`` overflows to ``inf``, the value of
    the bare update, silently.
    """
    validate_rule(state.dim, state.params, rule)
    wait = state.iterations_to_stage_end(rule)
    with np.errstate(over="ignore"):
        while not state.finished:
            rec = state.step(interact)
            if observer is not None:
                observer(state, rec)
            wait -= 1
            if wait == 0:
                state.advance_converged(rule)
                wait = state.iterations_to_stage_end(rule)
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record(row: dict, dim: int) -> IterationRecord:
    """A trace line as a record; ConfigError unless a run at ``dim`` could
    have written it.  ``w_after`` is at least 0, and may be infinite: uncapped
    runs overflow."""
    if set(row) != _RECORD_KEYS:
        raise ConfigError(f"trace record {row!r} needs the keys {sorted(_RECORD_KEYS)}")
    k, t, m, angles = row["k"], row["stage"], row["m"], row["angles"]
    if not (_is_int(k) and _is_int(t) and _is_int(m) and 0 <= t < dim - 1 and 0 <= m < dim):
        raise ConfigError(
            f"trace record {row!r} needs integers k, stage in [0, {dim - 1}) and m in [0, {dim})"
        )
    kind = _classify(t, m)
    if row["class"] != kind:
        raise ConfigError(f"trace record {row!r}: its stage and m make it a {kind} row")
    if kind == PUNISH:
        if not (isinstance(angles, dict) and set(angles) == _ANGLE_KEYS
                and all(_is_number(v) and math.isfinite(v) for v in angles.values())):
            raise ConfigError(f"punish record {row!r} needs finite {sorted(_ANGLE_KEYS)}")
        angles = RotationAngles(**{key: float(v) for key, v in angles.items()})
    elif angles is not None:
        raise ConfigError(f"{kind} record {row!r} may hold no angles")
    if not (_is_number(row["w_after"]) and row["w_after"] >= 0):  # NaN fails too
        raise ConfigError(f"trace record {row!r} needs a number w_after >= 0")
    return IterationRecord(k, t, m, kind, angles, float(row["w_after"]))


def read_trace(path: str) -> tuple[dict, list[IterationRecord], str]:
    """Parse a trace file; raises ConfigError if it is unreadable, truncated,
    or holds a record that a run at the header's ``dim`` cannot write, or
    records out of a run's order: ``k`` counts 1, 2, 3, ..., ``stage``
    starts at 0 and rises by at most 1 per record, and the last record is
    at the last stage, ``dim - 2``."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in (raw.strip() for raw in fh) if line]
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, an int too long
        raise ConfigError(f"trace line is not valid JSON: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError("trace too short: need a header and a final hash")
    if not all(isinstance(row, dict) for row in rows):
        raise ConfigError("every trace line must be a JSON object")
    header, body, footer = rows[0], rows[1:-1], rows[-1]
    if header.get("format") != TRACE_FORMAT:
        raise ConfigError(f"unknown trace format: {header.get('format')!r}")
    dim = header.get("dim")
    if not _is_int(dim) or not linalg.MIN_DIM <= dim <= linalg.MAX_DIM:
        raise ConfigError(f"trace header lacks a usable dim: {dim!r}")
    if "final_sha256" not in footer:
        raise ConfigError("trace truncated: final hash line missing")
    recorded = footer["final_sha256"]
    if not (isinstance(recorded, str) and len(recorded) == 64 and set(recorded) <= _HEX_DIGITS):
        raise ConfigError(f"trace final_sha256 must be 64 lowercase hex digits, got {recorded!r}")
    try:
        records = [_record(row, dim) for row in body]
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"bad trace record: {exc}") from exc
    stages = (0,)
    for k, rec in enumerate(records, start=1):
        if rec.k != k or rec.stage not in stages:
            raise ConfigError(f"trace record {k} has k {rec.k} and stage {rec.stage}; "
                              f"a run writes k {k} and a stage in {list(stages)}")
        stages = (rec.stage, rec.stage + 1)
    if not records or records[-1].stage != dim - 2:
        raise ConfigError(f"trace has no record of the last stage, {dim - 2}, "
                          f"where every run at dim {dim} ends")
    return dict(header), records, recorded


def replay_basis(dim: int, records: Iterable[IterationRecord]) -> np.ndarray:
    """Re-apply recorded punishments; reproduces the live basis bit for bit."""
    basis = np.eye(dim, dtype=np.complex128)
    stack, first = basis[None], np.zeros(1, dtype=np.intp)  # the engine's update on a stack of one
    for rec in records:
        if rec.classification == PUNISH:
            a = rec.angles
            _rotate(stack, first, np.array([rec.stage]), np.array([rec.outcome]),
                    np.array([[a.phi_x], [a.phi_y], [a.phi_z]]))
        if rec.k % REORTHONORMALIZE_EVERY == 0:
            linalg.gram_schmidt(basis)
    return basis
