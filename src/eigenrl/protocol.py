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
and the next column is learned.  Each ensemble runs under one rule, given
when it is built.  The last column needs no stage of its own, being pinned
by unitarity.

There is one engine: :class:`EnsembleState` advances many independently
seeded agents together with stacked array operations, and every check,
draw and update lives there.  It is reached only through
:meth:`EnsembleState.advance`, one round at a time, which :func:`run_stages`
drives; a lone agent is a one-member ensemble.  A member's decisions are
the columns of a :class:`Decisions`, filled from its rows of each round's
:class:`EnsembleRecord`; a trace file holds them one line per iteration,
and :func:`replay_basis` replays them.  Every
punishment, whether one member is punished or many, live or replayed, goes
through the one stacked column update, ``linalg.rotate_columns``, and every
Born weight through ``linalg.born_weights``: the engine computes no matrix
product of its own.

In the protocol each iteration sends a fresh probe through the black box,
but a member's probe, and so the distribution of its outcome, changes only
when it is punished, when the drift control re-orthonormalizes its basis or
when it starts a stage, and in between an iteration only multiplies ``w``
by ``r`` or leaves it.  The engine therefore keeps each member's Born
weights from the last such change, evolves only the changed probes, and
advances each member from event to event: a round moves every member it
runs through one segment of iterations that ends at the first of those
events or at the end of its window (see :class:`EnsembleState`).  The
iteration counts ``k`` and ``calls`` still count every iteration, one use
of the black box each.

The rounds give each member the bits of the lone agent that runs one
iteration at a time, because they keep these rules:

- an iteration's draw ``u`` is the member's next unread double times the
  sum of its Born weights, elementwise, and its outcome is the count of
  cumulative weights at or below ``u``;
- a segment reads its measurement draws first, so the cursor moves past
  them before the punishment at its end reads the angles x, z, y;
- the punish bound uses the ``w`` from before the punishing iteration, and
  ``w`` along a segment is one sequential product of ``r`` and ``1.0``;
- a recorded point's features come from the basis after that iteration's
  punishment or drift control;
- a finished member carries its last ``w_after`` and its final basis into
  every later record point, and record points exist only up to the
  longest run;
- the black box, the Born weights and their check, the cumulative sums and
  ``linalg.rotate_columns`` give each member the same bits whatever batch it
  is computed in.

Punish angles are drawn in the fixed order x, z, y from the per-agent
generator, so runs are reproducible and a recorded trace can be replayed
bit for bit.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg, seeding
from .errors import ConfigError, EigenrlError, finite_number, integer, read_json

#: cadence (in iterations) of the drift-control re-orthonormalization
REORTHONORMALIZE_EVERY = 10_000

#: the most iterations a stage budget or cap, or a record stride, may count.
#: The engine and the fold sum a member's stage counts, up to MAX_DIM - 1 of
#: them, and a stride in int64, so each count leaves room for that sum
MAX_COUNT = int(np.iinfo(np.int64).max) // (2 * linalg.MAX_DIM)

#: ceiling on the punish draw interval: beyond a million full turns the
#: angles are uniform mod 2pi anyway, and an unbounded interval would
#: eventually overflow the sampler on runaway uncapped runs.  ``w`` itself
#: is never clamped by this, so the bookkeeping identity stays exact.
MAX_DRAW_BOUND = 1e6 * math.pi

#: largest tolerated deviation of the Born weights' sum from 1
BORN_TOL = 1e-9

#: bytes of pre-drawn doubles per ensemble; each member's share is clamped
#: to [DRAW_BUFFER_MIN, DRAW_BUFFER_MAX] doubles.  Wider rows refill less
#: often (a refill is a generator call per row, so at 1000 members the
#: 256-double cap halves them against 1 MiB); the cap keeps a small
#: ensemble, such as a lone agent, from drawing MiBs ahead.
DRAW_BUFFER_BYTES = 1 << 21
DRAW_BUFFER_MIN = 32
DRAW_BUFFER_MAX = 256

#: doubles one iteration can use: the measurement draw and three punish angles
_DRAWS_PER_ITERATION = 4

#: member-iterations one round may draw: a round's window is this many
#: iterations shared among the running members, at least one, so it shrinks
#: as the ensemble grows and is a single iteration from 1024 members on
ROUND_ELEMENTS = 1 << 10

#: how far a member may run ahead of the slowest running one: the
#: iterations whose rows of 1 + dim**2 doubles per member fit in this many
#: bytes, what an observer holds at most for iterations not all have run
LEAD_BYTES = 1 << 23

#: positions of phi_x, phi_y, phi_z among the three punish draws (x, z, y)
_DRAWN_XYZ = np.array([[0], [2], [1]])

#: a stage's own outcome and the one after it, among the running sums that
#: start with -inf for the sum before outcome 0
_OWN_AND_NEXT = np.array([0, 1])

#: the punish angles of an iteration that punished no member
_NO_ANGLES = np.empty((3, 0))

TRACE_FORMAT = "eigenrl-trace-1"
_RECORD_KEYS = frozenset({"k", "stage", "m", "class", "angles", "w_after"})
_ANGLE_KEYS = ("phi_x", "phi_y", "phi_z")
_HEX_DIGITS = frozenset("0123456789abcdef")

REWARD = "reward"
PUNISH = "punish"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class RewardParams:
    """Feedback constants: shrink factor ``r``, growth product ``nu = r p``.

    ``w_cap`` optionally saturates the search range on punishment.  The
    default (infinity) keeps the bare multiplicative update, for which a
    stage of ``a`` rewards and ``b`` punishments ends at
    ``w = w1 * r**a * p**b`` exactly.  A cap of 1 is the natural
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
            raise ConfigError(f"stopping.kind must be threshold or fixed-budget, got {self.kind!r}")
        if self.kind == "fixed-budget":
            if not self.budgets:
                raise ConfigError("fixed-budget stopping needs a non-empty budgets list")
            object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
            if not all(1 <= b <= MAX_COUNT for b in self.budgets):
                raise ConfigError(f"budgets must lie in [1, {MAX_COUNT}], got {self.budgets}")
        elif self.budgets is not None:
            raise ConfigError("threshold stopping takes no budgets")
        if self.w_min <= 0.0:
            raise ConfigError(f"w_min must be positive, got {self.w_min}")
        if not 1 <= self.max_iterations <= MAX_COUNT:
            raise ConfigError(
                f"max_iterations must lie in [1, {MAX_COUNT}], got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class EnsembleRecord:
    """What one round did: one segment of consecutive iterations per member
    that ran in it.  Row ``j`` is member ``members[j]``'s segment, iterations
    ``k[j]`` to ``k[j] + length[j] - 1`` of that member, all in stage
    ``stage[j]``; only a segment's last iteration can punish or be followed
    by the drift control.

    No array of a record aliases engine state that a later round writes, so
    an observer may keep records and read them rounds later.  ``members``
    is the engine's ``active`` itself while every running member moves,
    which is safe because ``advance_stage`` binds ``active`` to a new array
    and never writes into it; ``length`` of a level round (below) is a view
    of a row of ones that nothing writes, and ``angles`` of a round without a
    punishment one shared empty array.  Every other array is made in the
    round."""

    members: np.ndarray  # (s,) the members that ran a segment, in index order
    k: np.ndarray        # (s,) each segment's first iteration, counted per member
    length: np.ndarray   # (s,) iterations in the segment, at least 1
    stage: np.ndarray    # (s,)
    #: (s, L) each iteration's measurement draw times the sum of the Born
    #: weights, and the search range after it, the punished growth included;
    #: entries at and beyond ``length[j]`` in row ``j`` mean nothing, so a
    #: segment ends at ``w_after[j, length[j] - 1]``
    u: np.ndarray
    w_after: np.ndarray
    #: (s, dim) -inf, then the cumulative Born weights the segment's draws
    #: were read on
    cumulative: np.ndarray
    punished: np.ndarray  # (s,) whether the segment ends in a punishment
    #: (3, h) rows phi_x, phi_y, phi_z of the h punished segments, in row order
    angles: np.ndarray
    #: (s,) whether the basis changed at the segment's last iteration: a
    #: punishment or the drift control
    moved: np.ndarray
    #: (moved.sum(), dim, dim) the bases of the moved members before the
    #: round, in row order; None in a level round, one of a one-iteration
    #: window, which moves every running member one iteration from one
    #: place, as every round before it did, so that no member, running or
    #: stopped, has run past the others
    before: np.ndarray | None


def _count(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcome of each draw ``u``: the first index whose running sum of
    Born weights exceeds it, that is how many of ``cumulative`` it reaches."""
    return (cumulative <= u).sum(axis=-1)


def _classify(t: int, m: int) -> str:
    """What outcome ``m`` is at stage ``t``."""
    return REWARD if m == t else PUNISH if m > t else NEUTRAL


@dataclass(eq=False)
class Decisions:
    """One member's decisions as columns of plain Python numbers, what a
    trace holds.  Entry ``k - 1`` of ``stage``, ``outcome`` and ``w_after``
    is iteration ``k``'s stage, outcome ``m`` and search range after it; the
    iteration is a reward, a punishment or neutral as ``m`` is equal to,
    above or below its stage.  ``angles`` holds phi_x, phi_y, phi_z of each
    punishment, in order: the transpose of an ``EnsembleRecord``'s."""

    stage: list[int] = field(default_factory=list)
    outcome: list[int] = field(default_factory=list)
    w_after: list[float] = field(default_factory=list)
    angles: list[list[float]] = field(default_factory=list)

    def add_segment(self, rec: EnsembleRecord, row: int = 0) -> None:
        """Append the iterations of ``rec``'s segment ``row``."""
        n = int(rec.length[row])
        self.stage += [int(rec.stage[row])] * n
        self.outcome += _count(rec.cumulative[row, 1:], rec.u[row, :n, None]).tolist()
        self.w_after += rec.w_after[row, :n].tolist()
        if rec.punished[row]:
            self.angles.append(rec.angles[:, np.count_nonzero(rec.punished[:row])].tolist())


class EnsembleState:
    """Independently seeded agents advanced together, round by round.

    Member ``i`` is the lone agent seeded ``seeds[i]``, an integer in
    ``[0, 2**64)``: how many members run beside it, and how its iterations
    are grouped into rounds, change none of its bits.  Every member's
    generator is seeded in one array pass, ``seeding.generators``, with the
    stream NumPy's default generator gives for its seed.  Each member reads its
    doubles in order from a row of ``_draws`` pre-drawn from its own
    generator, which gives the same values as drawing them one at a time;
    the rows share ``DRAW_BUFFER_BYTES``, within the per-member bounds.

    Between its events a member's iterations differ only in their draws:
    its probe, and so the distribution of its outcome, changes only when it
    is punished, when the drift control re-orthonormalizes its basis or when
    it starts a stage, and a reward or neutral outcome only multiplies ``w``
    by ``r`` or 1.  :meth:`advance` therefore runs one round in which every
    member it moves runs a *segment*: consecutive iterations up to its first
    punishment, the close of its stage, the next drift-control ``k`` or the
    end of its window, whichever comes first.  A window is
    ``ROUND_ELEMENTS`` iterations shared among the running members, at
    least one and at most what a draw row holds (``widest``), so it shrinks
    as the ensemble grows; a one-iteration window moves the members in lockstep.
    No member runs ahead of the slowest by more than the iterations whose
    rows of ``1 + dim**2`` doubles per member fit in ``LEAD_BYTES``, or one
    window if that is more, which bounds what an observer must hold for the
    iterations not every member has run.
    A round sends the stale probes (below) through one batched black-box
    call, draws every segment's outcomes at once, and applies all its
    punishments in one stacked update.

    Every member runs under ``rule``, the stopping rule given at
    construction, which refuses one that ``validate_rule`` rejects before
    any round.  A member runs until the rule has closed its last stage, so
    threshold runs end at different iterations; ``active`` lists the
    members still running.  ``calls[i]`` counts member ``i``'s iterations,
    its uses of the black box; ``k`` is one more than their sum.  The
    drift control runs after a member's own iteration ``k`` whenever
    ``k % REORTHONORMALIZE_EVERY == 0``, as for a lone agent.
    ``closed_at[t]`` is the last iteration at which a member closed stage
    ``t``.

    Each member's cumulative Born weights are cached from the last time its
    probe changed.  A member is stale, and its probe goes through the black
    box again at its next round, once it is punished, re-orthonormalized by
    the drift control or starts a stage (every member starts stale); the
    others draw their outcomes from the cached weights, which are the bits
    that evolving the same probe again would give.  ``evolved`` counts the
    probes sent through the black box, a cost of this simulator, and
    ``rounds`` the rounds run.

    ``reached_w_min[t]`` counts the members whose threshold stage ``t``
    closed by meeting ``w_min``; once every member has closed it, the rest
    closed it at the ``max_iterations`` cap.
    """

    def __init__(self, dim: int, params: RewardParams, rule: StoppingRule,
                 seeds: Sequence[int] | np.ndarray) -> None:
        linalg.require_dim(dim)
        validate_rule(dim, params, rule)
        n = len(seeds)
        self.dim = dim
        self.params = params
        self.rule = rule
        self.rngs = seeding.generators(seeds)
        self.bases = np.tile(np.eye(dim, dtype=np.complex128), (n, 1, 1))
        self.w = np.full(n, params.w1)
        self.stage = np.zeros(n, dtype=np.intp)
        self.calls = np.zeros(n, dtype=np.int64)
        self.active = np.arange(n)
        self.rounds = 0
        self.evolved = 0
        self.closed_at = np.zeros(dim - 1, dtype=np.int64)
        self.reached_w_min = np.zeros(dim - 1, dtype=np.int64)
        width = min(max(DRAW_BUFFER_BYTES // (8 * n), DRAW_BUFFER_MIN), DRAW_BUFFER_MAX)
        self._draws = np.empty((n, width))
        self._cursor = np.full(n, width)
        # the widest window, and the lead LEAD_BYTES allows
        self.widest = min(ROUND_ELEMENTS, width - _DRAWS_PER_ITERATION + 1)
        self._lead = LEAD_BYTES // (8 * n * (1 + dim**2))
        self._index = np.arange(max(n, width) + 1)  # up to every member, plus one
        self._zeros, self._ones = np.zeros(n, dtype=np.intp), np.ones(n, dtype=np.intp)
        self._row_start = self._index[:n] * width  # of each row in the flat _draws
        # -inf, then the cumulative Born weights of every outcome but the
        # last, and their sum
        self._cumulative = np.full((n, dim), -np.inf)
        self._total = np.empty(n)
        self._stages = (0, 0)  # the least and the greatest stage running
        self._stale = np.ones(n, dtype=bool)
        # iterations each stage may run at most, none after the last, and
        # each member's calls when the rule closes its stage at the latest
        limit = rule.budgets if rule.kind == "fixed-budget" else [rule.max_iterations] * dim
        self._limit = np.append(np.asarray(limit[:dim - 1], dtype=np.int64), 0)
        self._stage_end = np.full(n, self._limit[0])

    @property
    def k(self) -> int:
        return 1 + int(self.calls.sum())

    @property
    def finished(self) -> bool:
        return len(self.active) == 0

    def _refill(self, members: np.ndarray, sel: np.ndarray | slice,
                need: int = _DRAWS_PER_ITERATION) -> None:
        """Give each selected member at least ``need`` unread doubles."""
        width = self._draws.shape[1]
        for i in members[self._cursor[sel] > width - need]:
            row, start = self._draws[i], self._cursor[i]
            kept = width - start
            row[:kept] = row[start:]
            self.rngs[i].random(out=row[kept:])
            self._cursor[i] = 0

    def _sample(
        self, interact: Callable[[np.ndarray, np.ndarray], np.ndarray],
        members: np.ndarray, sel: np.ndarray | slice, width: int,
    ) -> np.ndarray:
        """(members, width): the selected members' next ``width`` unread
        doubles, each times the sum of the member's Born weights.  The
        weights are those of its evolved probe; only the stale members'
        probes go through ``interact``, the others reuse their weights."""
        stale = members[self._stale[sel]]
        if stale.size:
            bases = self.bases[stale]
            evolved = interact(stale, bases[self._index[:len(stale)], :, self.stage[stale]])
            if evolved.shape != (len(stale), self.dim):
                raise EigenrlError(
                    f"states shape {evolved.shape}, expected ({len(stale)}, {self.dim})"
                )
            q = linalg.born_weights(evolved, bases)
            total = q.sum(axis=1)
            drift = np.abs(total - 1.0)
            if not drift.max() < BORN_TOL:
                j = int(np.argmax(~(drift < BORN_TOL)))
                raise EigenrlError(
                    f"Born weights of member {stale[j]} sum to {float(total[j])!r}, not 1"
                )
            self._cumulative[stale, 1:] = np.cumsum(q[:, :-1], axis=1)
            self._total[stale] = total
            self._stale[stale] = False
            self.evolved += len(stale)
        start = (self._row_start[sel] + self._cursor[sel])[:, None]
        u = self._draws.take(start if width == 1 else start + self._index[:width])
        u *= self._total[sel, None]
        return u

    def _update(self, members: np.ndarray, sel: np.ndarray | slice, u: np.ndarray,
                cumulative: np.ndarray, bounds: np.ndarray, caps: np.ndarray | None = None,
                w_min: float | None = None, drift: bool = True) -> EnsembleRecord:
        """Apply the feedback of each selected member's segment: its
        iterations up to its first punishment, its first ``w`` below
        ``w_min`` (if given) or its ``caps`` entry, whichever comes first.
        A level round has no ``caps``: one iteration each, and a record
        without the moved members' bases from before the round.  ``u``
        holds the draws on ``cumulative``, and ``bounds`` each member's
        running sums before and through its stage's outcome.  The cursor
        first moves past the segments' measurement draws; ``drift`` says
        whether a segment may end at a drift-control ``k``."""
        t = self.stage[sel]
        w = self.w[sel]
        # outcome > t reaches the sum through t; outcome == t only the one before
        punish = u >= bounds[:, 1:]
        reward = u >= bounds[:, :1]
        reward ^= punish
        m, width = u.shape
        if caps is None:
            # w after the iteration: times r at a reward, times 1.0 otherwise
            w_after = np.where(reward, self.params.r, 1.0)
            w_after[:, 0] *= w
            last, length, ends = self._zeros[:m], self._ones[:m], self._index[:m]
            ended, w_end = punish[:, 0], w_after[:, 0]
        else:
            # w before the window, then along it as one sequential product
            trail = np.empty((m, width + 1))
            trail[:, 0] = w
            trail[:, 1:] = np.where(reward, self.params.r, 1.0)
            np.multiply.accumulate(trail, axis=1, out=trail)
            w_after = trail[:, 1:]
            stop = self._index[1:width + 1] >= caps[:, None]
            stop |= punish
            if w_min is not None:
                stop |= w_after < w_min
            last = stop.argmax(axis=1)
            ends = np.arange(0, m * width, width) + last  # flat, in the (m, width) arrays
            # in trail, whose rows are one longer, the iteration after them
            ended, w_end = punish.take(ends), trail.take(ends + self._index[1:m + 1])
            length = last + 1
        self._cursor[sel] += length  # the measurement draws come first
        calls = self.calls[sel] + length
        moved, controlled = ended, None
        if drift:
            controlled = calls % REORTHONORMALIZE_EVERY == 0
            moved = ended | controlled
        before = None if caps is None else self.bases[members[moved]]
        angles = _NO_ANGLES
        hit = ended.nonzero()[0]
        if hit.size:
            who, at = members[hit], ends[hit]
            w_before = w[hit] if caps is None else trail.take(at + hit)
            angles = self._punish(who, t[hit], _count(cumulative[hit, 1:], u.take(at)[:, None]),
                                  w_before)
            self._stale[who] = True
            w_end[hit] = grown = np.minimum(w_before * self.params.p, self.params.w_cap)
            if caps is not None:
                trail.put(at + hit + 1, grown)
        self.w[sel] = w_end
        self.calls[sel] = calls
        if controlled is not None and controlled.any():
            for i in members[controlled]:
                linalg.gram_schmidt(self.bases[i])
            self._stale[members[controlled]] = True
        self.rounds += 1
        return EnsembleRecord(
            members=members, k=calls - last, length=length, u=u, w_after=w_after,
            stage=t.copy(), cumulative=cumulative, punished=ended, angles=angles,
            moved=moved, before=before,
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
        linalg.rotate_columns(self.bases, who, t, m, angles)
        return angles

    def _weights(self, sel: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        """A copy of the selected members' ``_cumulative`` rows, and (members,
        2) each one's running sums of Born weights before and through its
        stage's own outcome, -inf before outcome 0."""
        cumulative = self._cumulative[sel].copy()
        low, high = self._stages
        if low == high:
            return cumulative, cumulative[:, low:low + 2]
        at = self.stage[sel, None] + _OWN_AND_NEXT
        return cumulative, cumulative[self._index[:len(cumulative), None], at]

    def advance(self, interact: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> EnsembleRecord:
        """Run one round (see the class docstring) and close the stages that
        the rule says are done.

        ``interact(members, probes)`` evolves row ``j`` of ``probes`` as the
        black box of member ``members[j]`` would; it sees the probes of the
        stale members only, and is not called when none is stale.  A round
        with no iteration to run, which only a stage left open at its end
        can give, raises EigenrlError naming the slowest member.
        """
        rule = self.rule
        members = self.active
        if not len(members):
            raise EigenrlError("no member is active: every stage is done")
        sel = slice(None) if len(members) == len(self.w) else members  # a view while all run
        at = self.calls[sel]
        width = min(max(ROUND_ELEMENTS // len(members), 1), self.widest)
        level = width == 1
        if level:
            # the window only widens as members finish, so every round so far
            # moved each running member one iteration: they run level
            slowest = fastest = int(at[0])
        else:
            slowest, fastest = int(at.min()), int(at.max())
        lead = max(self._lead, width)
        drift = slowest - slowest % REORTHONORMALIZE_EVERY + REORTHONORMALIZE_EVERY
        end = min(slowest + lead, drift)
        caps = None
        if not level:
            caps = np.minimum(self._stage_end[sel], end)
            caps -= at
            np.minimum(caps, width, out=caps)
            if fastest >= end:  # members at the end of the window wait
                members = members[caps > 0]
                sel, caps = members, caps[caps > 0]
            width = int(caps.max(initial=0))
            if width < 1:  # no iteration left: the slowest member's stage ended unclosed
                i = self.active[at.argmin()]
                raise EigenrlError(f"member {i} reached the end of its stage {self.stage[i]}, "
                                   f"call {self._stage_end[i]}, and the stage did not close")
        self._refill(members, sel, width + 3)
        u = self._sample(interact, members, sel, width)
        threshold = rule.kind == "threshold"
        rec = self._update(members, sel, u, *self._weights(sel), caps,
                           rule.w_min if threshold else None,
                           drift=end == drift)
        closing = self.stage_converged(sel)
        if closing.any():
            closed = members[closing]
            if threshold:
                met = closed[self.w[closed] < rule.w_min]
                self.reached_w_min += np.bincount(self.stage[met], minlength=self.dim - 1)
            self.advance_stage(closed)
        return rec

    def stage_converged(self, sel: np.ndarray | slice) -> np.ndarray:
        """Mask over the selected running members: whose current stage the
        rule has closed, by its ``w_min`` or by the iterations it allows: a
        member at or past its stage's end."""
        done = self.calls[sel] >= self._stage_end[sel]
        if self.rule.kind == "threshold":
            done |= self.w[sel] < self.rule.w_min
        return done

    def advance_stage(self, members: np.ndarray) -> None:
        """Fix the current column of each listed member and start its next one."""
        stages = self.stage[members]
        if (stages >= self.dim - 1).any():
            raise EigenrlError(f"no stage after {self.dim - 2} at dim {self.dim}")
        np.maximum.at(self.closed_at, stages, self.calls[members])
        self.stage[members] = stages + 1
        self._stale[members] = True
        self.w[members] = self.params.w1
        self._stage_end[members] = self.calls[members] + self._limit[stages + 1]
        if (stages == self.dim - 2).any():
            self.active = self.active[self.stage[self.active] < self.dim - 1]
        if len(self.active):
            running = self.stage[self.active]
            self._stages = (int(running.min()), int(running.max()))


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
    observer: Callable[[EnsembleState, EnsembleRecord], None] | None = None,
) -> EnsembleState:
    """Drive every member of an ensemble through all ``dim - 1`` stages,
    under the stopping rule it was built with.

    The ensemble runs round by round (:meth:`EnsembleState.advance`, which
    says what the batched black box ``interact`` sees), and
    ``observer(state, record)`` sees each round's :class:`EnsembleRecord`
    once the stages the round closed have advanced.  Returns ``state``,
    finished; its ``k - 1`` is the number of iterations run, summed over
    members.  An uncapped runaway ``w`` overflows to ``inf``, the value of
    the bare update, silently.
    """
    with np.errstate(over="ignore"):
        while not state.finished:
            rec = state.advance(interact)
            if observer is not None:
                observer(state, rec)
    return state


# ---------------------------------------------------------------------------
# trace files: newline-delimited JSON, one record per iteration


def basis_hash(basis: np.ndarray) -> str:
    """SHA-256 of the row-major complex128 bytes of the basis."""
    return hashlib.sha256(np.ascontiguousarray(basis).tobytes()).hexdigest()


def write_trace(path: str, header: dict, decisions: Decisions, final_basis: np.ndarray) -> str:
    """Write a trace file; returns the final basis hash its footer holds."""
    final_sha256 = basis_hash(final_basis)
    punishments = iter(decisions.angles)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": TRACE_FORMAT, **header}) + "\n")
        for k, (t, m, w_after) in enumerate(
                zip(decisions.stage, decisions.outcome, decisions.w_after), start=1):
            kind = _classify(t, m)
            angles = dict(zip(_ANGLE_KEYS, next(punishments))) if kind == PUNISH else None
            row = {"k": k, "stage": t, "m": m, "class": kind, "angles": angles,
                   "w_after": w_after}
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"final_sha256": final_sha256}) + "\n")
    return final_sha256


def _record(row: dict, dim: int) -> tuple[int, int, int, list[float] | None, float]:
    """A trace line's ``k``, stage, outcome, punish angles (phi_x, phi_y,
    phi_z, or None) and ``w_after``; ConfigError unless a run at ``dim``
    could have written it.  ``w_after`` is at least 0, and may be infinite:
    uncapped runs overflow."""
    if set(row) != _RECORD_KEYS:
        raise ConfigError(f"trace record {row!r} needs the keys {sorted(_RECORD_KEYS)}")
    k, t, m = (integer(row[key], f"trace record {row!r} {key}") for key in ("k", "stage", "m"))
    if not (0 <= t < dim - 1 and 0 <= m < dim):
        raise ConfigError(f"trace record {row!r} needs stage in [0, {dim - 1}) and m in [0, {dim})")
    kind, angles, w_after = _classify(t, m), row["angles"], row["w_after"]
    if row["class"] != kind:
        raise ConfigError(f"trace record {row!r}: its stage and m make it a {kind} row")
    if kind == PUNISH:
        if not (isinstance(angles, dict) and set(angles) == set(_ANGLE_KEYS)):
            raise ConfigError(f"punish record {row!r} needs the angles {list(_ANGLE_KEYS)}")
        angles = [finite_number(angles[key], f"punish record {row!r} {key}")
                  for key in _ANGLE_KEYS]
    elif angles is not None:
        raise ConfigError(f"{kind} record {row!r} may hold no angles")
    if w_after != math.inf:  # uncapped runs overflow to inf
        w_after = finite_number(w_after, f"trace record {row!r} w_after")
    if w_after < 0:
        raise ConfigError(f"trace record {row!r} needs w_after >= 0")
    return k, t, m, angles, w_after


def read_trace(path: str) -> tuple[dict, Decisions, str]:
    """Parse a trace file into its header, its decisions and its final
    hash; raises ConfigError if it is unreadable, truncated, or holds a
    record that a run at the header's ``dim`` cannot write, or records out
    of a run's order: ``k`` counts 1, 2, 3, ..., ``stage`` starts at 0 and
    rises by at most 1 per record, and the last record is at the last
    stage, ``dim - 2``."""
    rows = read_json(path, "trace", lines=True)
    if len(rows) < 2:
        raise ConfigError("trace too short: need a header and a final hash")
    if not all(isinstance(row, dict) for row in rows):
        raise ConfigError("every trace line must be a JSON object")
    header, body, footer = rows[0], rows[1:-1], rows[-1]
    if header.get("format") != TRACE_FORMAT:
        raise ConfigError(f"unknown trace format: {header.get('format')!r}")
    dim = linalg.require_dim(header.get("dim"), "trace header dim")
    if "final_sha256" not in footer:
        raise ConfigError("trace truncated: final hash line missing")
    recorded = footer["final_sha256"]
    if not (isinstance(recorded, str) and len(recorded) == 64 and set(recorded) <= _HEX_DIGITS):
        raise ConfigError(f"trace final_sha256 must be 64 lowercase hex digits, got {recorded!r}")
    decisions = Decisions()
    stages = (0,)
    for k, row in enumerate(body, start=1):
        written, t, m, angles, w_after = _record(row, dim)
        if written != k or t not in stages:
            raise ConfigError(f"trace record {k} has k {written} and stage {t}; "
                              f"a run writes k {k} and a stage in {list(stages)}")
        stages = (t, t + 1)
        decisions.stage.append(t)
        decisions.outcome.append(m)
        decisions.w_after.append(w_after)
        if angles is not None:
            decisions.angles.append(angles)
    if not decisions.stage or decisions.stage[-1] != dim - 2:
        raise ConfigError(f"trace has no record of the last stage, {dim - 2}, "
                          f"where every run at dim {dim} ends")
    return dict(header), decisions, recorded


def replay_basis(dim: int, decisions: Decisions) -> np.ndarray:
    """Re-apply recorded punishments; reproduces the live basis bit for bit."""
    basis = np.eye(dim, dtype=np.complex128)
    stack, first = basis[None], np.zeros(1, dtype=np.intp)  # the engine's update on a stack of one
    punishments = iter(decisions.angles)
    for k, (t, m) in enumerate(zip(decisions.stage, decisions.outcome), start=1):
        if m > t:
            linalg.rotate_columns(stack, first, np.array([t]), np.array([m]),
                                  np.array(next(punishments))[:, None])
        if k % REORTHONORMALIZE_EVERY == 0:
            linalg.gram_schmidt(basis)
    return basis
