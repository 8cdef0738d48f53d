"""Monte Carlo driver: repeated runs, aggregate curves, result files.

A single experiment repeats the learning protocol ``repetitions`` times
against a configured environment and aggregates two curves over the
iteration count k: the mean fidelity F_j(k) between basis column j and
the environment's eigenvectors, and the mean search range W(k).  A run
builds one :class:`~eigenrl.environment.Environment`, a stack of one shared
operator or of one operator per repetition; the black box, the fold and the
final residual all read its stacks.  Their products are named
:mod:`~eigenrl.linalg` functions, ``apply_unitaries``, ``overlaps`` and
``diag_residual``, as is ``load_basis``'s ``unitarity_defect``: this module
computes no matrix product of its own.

All repetitions run together in one ensemble, round by round, and every curve
point is a sum over repetitions taken in index order, so each repetition
matches a lone agent bit for bit and the results do not depend on how
the work is scheduled.  The fold that takes those sums sums each point of
a lockstep round as the round ends, keeps later rounds' records and folds
them in flushes; between flushes it holds kept rounds of fewer than
``FOLD_BYTES`` and, per repetition, at most the rows of the points that the
engine's lead spans, plus one.  A trace of repetition 0 is captured from
the same run, so it audits the decisions behind the results.

Every repetition's seeds, and the generators they seed, come from one
array pass over all repetitions (:mod:`eigenrl.seeding`) that gives, bit
for bit, what NumPy's seed sequences give one repetition at a time.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__, linalg, protocol, seeding
from .environment import (
    Environment,
    SingleQubitSpec,
    env_bell,
    env_from_matrix,
    env_random,
    env_single_qubit,
    env_spin_x,
    load_operator,
    parse_matrix,
)
from .errors import ConfigError, EigenrlError
from .errors import finite_number, integer, read_json
from .protocol import RewardParams, StoppingRule, run_stages

RESULTS_FORMAT = "eigenrl-results-1"

#: largest Frobenius norm of D^H D - I that ``load_basis`` accepts
BASIS_UNITARITY_TOL = 1e-6

ENV_KINDS = ("random", "single-qubit-spec", "spin-x", "bell", "file")

#: "paper" keeps the best-matching eigenvector index shared across the whole
#: ensemble (max over l of the mean |amplitude|); "per-rep" lets every
#: repetition pick its own best match before averaging.
FIDELITY_MODES = ("paper", "per-rep")

_REP_SALT = 17
_ENV_SALT = 23

log = logging.getLogger(__name__)


def code_version() -> str:
    """The package version; the results bytes never depend on the checkout."""
    return f"eigenrl-{__version__}"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit."""

    dim: int
    env_kind: str
    r: float
    nu: float
    repetitions: int
    seed: int
    stopping: StoppingRule
    tau: float = 1.0
    w1: float = 1.0
    w_cap: float = math.inf
    env_seed: int = 0
    resample_env_per_repetition: bool = False
    fidelity_mode: str = "paper"
    record_every: int = 1
    single_qubit: SingleQubitSpec | None = None
    operator_file: str | None = None

    def __post_init__(self) -> None:
        if self.env_kind not in ENV_KINDS:
            raise ConfigError(
                f"env_kind must be one of {ENV_KINDS}, got {self.env_kind!r}"
            )
        linalg.require_dim(self.dim)
        seeding.require_seed(self.seed, "seed")
        seeding.require_seed(self.env_seed, "env_seed")
        if not 1 <= self.repetitions <= seeding.MAX_MEMBERS:
            raise ConfigError(
                f"repetitions must lie in [1, {seeding.MAX_MEMBERS}], got {self.repetitions}")
        if not 1 <= self.record_every <= protocol.MAX_COUNT:
            raise ConfigError(
                f"record_every must lie in [1, {protocol.MAX_COUNT}], got {self.record_every}")
        if self.fidelity_mode not in FIDELITY_MODES:
            raise ConfigError(
                f"fidelity_mode must be one of {FIDELITY_MODES}, "
                f"got {self.fidelity_mode!r}"
            )
        if self.fidelity_mode == "paper" and self.resample_env_per_repetition:
            raise ConfigError(
                "fidelity_mode 'paper' shares one environment across "
                "repetitions; use 'per-rep' when resampling"
            )
        if self.resample_env_per_repetition and self.env_kind != "random":
            raise ConfigError(
                f"only env_kind 'random' can be resampled, got {self.env_kind!r}"
            )
        if self.env_kind == "single-qubit-spec" and self.single_qubit is None:
            raise ConfigError("env_kind 'single-qubit-spec' needs a single_qubit block")
        if self.env_kind != "single-qubit-spec" and self.single_qubit is not None:
            raise ConfigError("single_qubit only applies to env_kind 'single-qubit-spec'")
        if self.env_kind == "file" and not self.operator_file:
            raise ConfigError("env_kind 'file' needs an operator_file path")
        if self.env_kind != "file" and self.operator_file is not None:
            raise ConfigError("operator_file only applies to env_kind 'file'")
        protocol.validate_rule(self.dim, self.params, self.stopping)

    @property
    def params(self) -> RewardParams:
        return RewardParams(r=self.r, nu=self.nu, w1=self.w1, w_cap=self.w_cap)


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _path(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string, got {value!r}")
    return value


def _parse_stopping(raw, key: str) -> StoppingRule:
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object, got {raw!r}")
    kind = raw.get("kind")
    if kind == "fixed-budget":
        allowed = {"kind", "budgets"}
        budgets = raw.get("budgets")
        if not isinstance(budgets, list):
            raise ConfigError(f"fixed-budget stopping needs a budgets list, got {budgets!r}")
        kw = {"budgets": tuple(integer(b, "budgets") for b in budgets)}
    else:
        allowed = {"kind", "w_min", "max_iterations"}
        kw = {}
        if "w_min" in raw:
            kw["w_min"] = finite_number(raw["w_min"], "w_min")
        if "max_iterations" in raw:
            kw["max_iterations"] = integer(raw["max_iterations"], "max_iterations")
    rule = StoppingRule(kind=kind, **kw)  # which also checks the kind
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown stopping keys: {unknown}")
    return rule


def _parse_single_qubit(raw, key: str) -> SingleQubitSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object, got {raw!r}")
    wanted = {f.name for f in fields(SingleQubitSpec)}
    if set(raw) != wanted:
        raise ConfigError(
            f"{key} needs exactly the keys {sorted(wanted)}, got {sorted(raw)}"
        )
    return SingleQubitSpec(**{name: finite_number(raw[name], name) for name in wanted})


def _nullable(parse):
    """``parse``, except that JSON null gives None."""
    return lambda value, key: None if value is None else parse(value, key)


#: one parser per ExperimentConfig field, called as ``parse(value, key)``;
#: null is a value only where a parser says what it means
_PARSERS = {
    "dim": integer,
    "env_kind": lambda value, key: value,  # checked by ExperimentConfig
    "r": finite_number,
    "nu": finite_number,
    "repetitions": integer,
    "seed": integer,
    "stopping": _parse_stopping,
    "tau": finite_number,
    "w1": finite_number,
    "w_cap": lambda value, key: math.inf if value is None else finite_number(value, key),
    "env_seed": integer,
    "resample_env_per_repetition": _boolean,
    "fidelity_mode": lambda value, key: value,  # checked by ExperimentConfig
    "record_every": integer,
    "single_qubit": _nullable(_parse_single_qubit),
    "operator_file": _nullable(_path),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON; unknown keys are rejected.

    The keys are the fields of ExperimentConfig, and those without a
    default are required.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    schema = fields(ExperimentConfig)
    unknown = sorted(set(raw) - {f.name for f in schema})
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = sorted(f.name for f in schema if f.default is MISSING and f.name not in raw)
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    return ExperimentConfig(**{key: _PARSERS[key](value, key) for key, value in raw.items()})


def config_to_dict(config: ExperimentConfig) -> dict:
    """Full echo of a config, invertible through config_from_dict."""
    out = asdict(config)
    out["w_cap"] = None if math.isinf(config.w_cap) else config.w_cap
    if config.stopping.kind == "fixed-budget":
        out["stopping"] = {"kind": config.stopping.kind, "budgets": list(config.stopping.budgets)}
    else:
        del out["stopping"]["budgets"]
    for key in ("single_qubit", "operator_file"):
        if out[key] is None:
            del out[key]
    return out


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config"))


def build_environment(config: ExperimentConfig) -> Environment:
    """The run's one environment: the operator every repetition shares or,
    when resampled, one random operator per repetition, all built together
    with the bits each has alone.  Repetition ``i``'s is drawn with the
    first uint64 that NumPy's seed sequence of the entropy ``[seed, 23, i]``
    generates.  A ``file`` kind's ``tau`` must equal the operator file's."""
    kind = config.env_kind
    if kind == "random":
        seeds = (seeding.derive_seeds(config.seed, _ENV_SALT, config.repetitions)
                 if config.resample_env_per_repetition else [config.env_seed])
        env = env_random(config.dim, config.tau, seeds)
    elif kind == "single-qubit-spec":
        env = env_single_qubit(config.single_qubit, config.tau)
    elif kind == "spin-x":
        env = env_spin_x(config.tau)
    elif kind == "bell":
        env = env_bell(config.tau)
    else:  # file
        operator, tau = load_operator(config.operator_file)
        if tau != config.tau:
            raise ConfigError(f"config tau {config.tau!r} differs from the tau {tau!r} "
                              f"of operator file {config.operator_file}")
        env = env_from_matrix(operator, tau)
    if env.dim != config.dim:
        raise ConfigError(
            f"config dim {config.dim} but the {kind} environment has dim {env.dim}"
        )
    return env


# ---------------------------------------------------------------------------
# the ensemble run and the streaming reduction


def _black_box(env: Environment):
    """Batched ``interact(members, probes)`` over a shared operator or one
    operator per member.

    Row ``j`` of ``probes`` is sent through member ``members[j]``'s
    operator: one application of its unitary, ``exp(-i tau O)``, by
    ``linalg.apply_unitaries``.  This is the only black box the learner is
    handed.
    """
    unitaries = env.unitaries

    def interact(members: np.ndarray, probes: np.ndarray) -> np.ndarray:
        return linalg.apply_unitaries(unitaries, members, probes)

    return interact


#: bytes of round-record arrays the fold keeps before it folds them into
#: curve points: the search ranges and snapshots of each kept round, its
#: moves and 24 a segment for its members, first iterations and lengths,
#: whether or not the engine shares those
FOLD_BYTES = 1 << 18


class _Fold:
    """Sums over repetitions at each recorded k, taken in repetition order.

    Point ``q``, at k = ``q * record_every``, sums one row per repetition:
    its search range after iteration k, then either the |<l_E|D|j>| matrix
    of its basis after that iteration's punishment ("paper" mode) or that
    matrix's column maxima ("per-rep" mode).  A repetition that has stopped
    before k adds its last search range and final basis, in both modes and
    for every later point, so threshold-mode curves stay flat after
    convergence instead of dropping out of the average.

    While the engine runs every repetition one iteration a round, level
    (records without ``before``), each repetition's row takes the round's
    search range, ``w_after[:, 0]``, and each round's point is summed as it
    is reached.  Later rounds are kept, with the bases from before their
    moves (punishments) as snapshots; a round whose snapshots outweigh its search ranges
    keeps instead the features of those a point may read.  Once the kept
    rounds reach ``FOLD_BYTES``, and in ``finalize``, a flush folds them in
    one pass.  It reads the search range at each point a segment passed, and
    the features of the basis its repetition held there: the snapshot of its
    next move, or its current basis if it has not moved since, with one
    ``linalg.overlaps`` call for every one not computed before; the same
    call brings up to date the rows of the repetitions that have stopped,
    whose last search range the kept rounds hold.  The points that every
    running repetition has passed are summed in one block, down the
    repetition axis, in repetition order; the rows of later points wait in a
    ring, widened at a flush to the points passed and not summed when those
    are more than it holds.  The engine keeps every repetition within its
    lead of the slowest running one, at most ``max(LEAD_BYTES // (8 n (1 +
    d**2)), widest)`` iterations, so between flushes the fold holds kept
    rounds of fewer than ``FOLD_BYTES`` and a ring of at most that lead over
    ``record_every``, plus one, rows per repetition.
    """

    def __init__(self, config: ExperimentConfig, env: Environment,
                 ensemble: protocol.EnsembleState) -> None:
        n, d = config.repetitions, config.dim
        self.config = config
        self.paper = config.fidelity_mode == "paper"
        # conjugated once here; linalg.overlaps takes each item's transpose
        # as a view, laid out as eigenvectors.conj().T is
        self._vconj = env.eigensystem.eigenvectors.conj()
        # each repetition's latest row, which a stopped one adds to every
        # later point; its features are of its current basis where _current
        self.rows = np.empty((n, 1 + (d * d if self.paper else d)))
        self.rows[:, 0] = config.w1
        self.rows[:, 1:] = self._features(ensemble.active, ensemble.bases)
        self._current = np.ones(n, dtype=bool)
        # the last move of each repetition that _read_now saw; an earlier one
        # only makes it read more
        self._moved_at = np.zeros(n, dtype=np.int64)
        # members, k, length, moved segments, w_after and snapshots of each kept round
        self._kept: list[tuple[np.ndarray, ...]] = []
        self._bytes = 0
        # the row of point q of repetition i, passed but not summed, at [i, q % width]
        self._ahead = np.empty((n, 1, self.rows.shape[1]))
        self._next = 1  # the next point to sum
        self._sums = [np.add.reduce(self.rows, axis=0)[None]]  # point 0
        self.flushes = 0
        self.seconds = 0.0  # spent in observe and finalize

    def _features(self, members: np.ndarray, bases: np.ndarray) -> np.ndarray:
        amp = linalg.overlaps(self._vconj, members, bases)
        return amp.reshape(len(amp), self.rows.shape[1] - 1) if self.paper else amp.max(axis=1)

    def observe(
        self, state: protocol.EnsembleState, rec: protocol.EnsembleRecord
    ) -> None:
        begin = time.perf_counter()
        if rec.before is None:
            self._level(state, rec)
        else:
            moved, snapshots = rec.punished.nonzero()[0], rec.before
            if snapshots.nbytes > rec.w_after.nbytes:
                moved, snapshots = self._read_now(state, rec, moved)
            self._kept.append((rec.members, rec.k, rec.length, moved, rec.w_after, snapshots))
            self._bytes += (rec.w_after.nbytes + snapshots.nbytes + moved.nbytes
                            + 24 * len(rec.members))
            if self._bytes >= FOLD_BYTES:
                self._flush(state)
        self.seconds += time.perf_counter() - begin

    def _level(self, state: protocol.EnsembleState, rec: protocol.EnsembleRecord) -> None:
        """Bring the rows up to date after a level round, and sum its point."""
        rows, current = self.rows, self._current
        rows[rec.members, 0] = rec.w_after[:, 0]
        current[rec.members[rec.punished]] = False
        if rec.k[0] % self.config.record_every == 0:
            stale = (~current).nonzero()[0]
            rows[stale, 1:] = self._features(stale, state.bases[stale])
            current[stale] = True
            self._sums.append(np.add.reduce(rows, axis=0)[None])  # sequential down axis 0
            self._next += 1

    def _read_now(self, state: protocol.EnsembleState, rec: protocol.EnsembleRecord,
                  moved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The moved segments whose snapshot a point may read, one between
        the move and its repetition's move before, and those features."""
        members = rec.members[moved]
        at, since = state.calls[members], self._moved_at[members]
        self._moved_at[members] = at
        self._current[members] = False
        read = (since + -since % self.config.record_every < at).nonzero()[0]
        return moved[read], self._features(members[read], rec.before[read])

    def _passed(self, state: protocol.EnsembleState) -> tuple[np.ndarray, ...]:
        """The points the kept segments passed: their repetitions, points and
        rows, each a search range and the features of the basis held there."""
        every, rows = self.config.record_every, self.rows
        n, width = rows.shape
        rounds = len(self._kept)
        members, first, length, moved, w_after, snapshots = zip(*self._kept)
        self._kept, self._bytes = [], 0
        sizes = [len(who) for who in members]
        counts = [len(segments) for segments in moved]
        members = np.concatenate(members)
        # each segment's cell in the grid below: row b for the b-th last round
        cell = np.repeat(np.arange(rounds * n, 0, -n), sizes)
        cell += members
        first = np.concatenate(first)
        end = np.concatenate(length) + first - 1  # each segment's last iteration
        widths = np.repeat([w.shape[1] for w in w_after], sizes)
        origin = np.cumsum(widths) - widths - first  # of iteration 0 in w_after, flat
        w_after = np.concatenate(w_after, axis=None)
        moved = np.concatenate(moved) + np.repeat(np.cumsum(sizes) - sizes, counts)
        self._current[members[moved]] = False
        # snapshot ids: the kept snapshots in round order, then the rows; grid
        # row 0 names each repetition's row, and row b the snapshot of its
        # first kept move at or after the b-th last round
        moves = len(moved)
        ids = np.empty((rounds + 1, n), dtype=np.intp)
        ids[0] = np.arange(moves, moves + n)
        ids[1:] = moves + n
        grid = ids.ravel()
        grid[cell[moved]] = np.arange(moves)
        np.minimum.accumulate(ids, axis=0, out=ids)
        # the points in each segment: its last iteration has the basis after
        # the segment, one before it the basis before its own move or the next
        low = (first - 1) // every
        passes = end // every - low
        seg, step = (np.arange(int(passes.max(initial=0))) < passes[:, None]).nonzero()
        q = low[seg] + step + 1
        at = q * every
        pid = grid.take(cell[seg] - n * (at == end[seg]))
        need = np.zeros(moves + n, dtype=bool)
        need[pid] = True
        # the rows of the repetitions that stopped
        last = (end == state.calls[members]).nonzero()[0]
        last = last[state.stage[members[last]] == state.dim - 1]
        rows[members[last], 0] = w_after.take(origin[last] + end[last])
        need[moves:] |= state.stage == state.dim - 1
        # the features kept as such, and one overlaps call for the kept bases
        # a point reads and the stale rows it or a stopped repetition reads
        table = np.empty((moves + n, width))
        made = np.repeat([snapshot.ndim == 2 for snapshot in snapshots], counts)
        if made.any():
            table[:moves][made, 1:] = np.concatenate([f for f in snapshots if f.ndim == 2])
            need[:moves] &= ~made
        need[moves:] &= ~self._current
        need = need.nonzero()[0]
        split = need.searchsorted(moves)
        taken, fresh = need[:split], need[split:] - moves
        bases = [state.bases.take(fresh, axis=0)]
        if split:  # the kept bases, numbered past the kept features
            kept = np.concatenate([b for b in snapshots if b.ndim == 3])
            bases.insert(0, kept.take((np.cumsum(~made) - 1)[taken], axis=0))
        features = self._features(np.concatenate([members[moved[taken]], fresh]),
                                  np.concatenate(bases))
        table[taken, 1:] = features[:split]
        rows[fresh, 1:] = features[split:]
        self._current[fresh] = True
        table[moves:] = rows
        values = table.take(pid, axis=0)
        values[:, 0] = w_after.take(origin[seg] + at)
        return members[seg], q, values

    def _flush(self, state: protocol.EnsembleState) -> None:
        """Fold the kept rounds, and sum every point that every running
        repetition has passed."""
        every, rows = self.config.record_every, self.rows
        running = state.active
        ready = int(state.calls[running].min() if len(running) else state.calls.max()) // every
        who, q, values = self._passed(state)
        ahead = self._ahead
        # what earlier flushes passed, a stopped repetition's latest row
        # after its last point, and what the kept rounds passed
        points = np.arange(self._next, ready + 1)
        block = ahead.take(points % ahead.shape[1], axis=1)
        past = points > (state.calls // every)[:, None]
        np.copyto(block, rows[:, None], where=past[..., None])
        now = q <= ready
        block[who[now], q[now] - self._next] = values[now]
        self._sums.append(np.add.reduce(block, axis=0))  # sequential down axis 0
        self._next = ready + 1
        spread = int(state.calls.max()) // every - ready
        if spread > ahead.shape[1]:  # as wide as the spread, with the rows it holds
            held = np.arange(ready + 1, ready + 1 + ahead.shape[1])
            self._ahead = np.empty((len(rows), spread, rows.shape[1]))
            self._ahead[:, held % spread] = ahead[:, held % len(held)]
            ahead = self._ahead
        later = q > ready
        ahead[who[later], q[later] % ahead.shape[1]] = values[later]
        self.flushes += 1

    def finalize(self, state: protocol.EnsembleState, env: Environment) -> "ExperimentResult":
        """The curves and finals of ``state``, a finished ensemble: every
        repetition has closed every stage, so ``closed_at`` gives the stage
        column."""
        begin = time.perf_counter()
        if self._kept:
            self._flush(state)
        self.seconds += time.perf_counter() - begin
        config = self.config
        n = config.repetitions
        sums = np.concatenate(self._sums)
        ks = np.arange(len(sums)) * config.record_every
        # at each point, how many stages every repetition had closed before
        # it: a stage's last close falls before a point, or after every
        # repetition has run past it, so the last closes give the curve
        stages = state.closed_at.searchsorted(ks)
        search = sums[:, 0] / n
        fidelity = sums[:, 1:]
        if self.paper:
            fidelity = fidelity.reshape(len(sums), config.dim, config.dim).max(axis=1)
        fidelity = fidelity.T / n  # (d, K)
        if not fidelity.max(initial=0.0) <= 1.0 + 1e-9:  # NaN fails it too
            raise EigenrlError("fidelity left [0, 1]: unitarity was lost")
        fidelity = np.minimum(fidelity, 1.0)
        # one by one in repetition order, where np.sum pairs them
        residuals = linalg.diag_residual(state.bases, env.operators)
        residual_sum = float(np.add.accumulate(residuals)[-1])
        metadata = {
            "format": RESULTS_FORMAT,
            "config": config_to_dict(config),
            "code_version": code_version(),
            "longest_run": int(state.calls.max()),
        }
        return ExperimentResult(
            ks=ks,
            stages=stages,
            fidelity_curves=fidelity,
            search_curve=search,
            per_repetition_final=linalg.overlaps(self._vconj, np.arange(n), state.bases),
            diag_residual=residual_sum / n,
            metadata=metadata,
        )


@dataclass
class Trace:
    """Repetition 0's decisions, captured from the ensemble run as it goes."""

    header: dict
    decisions: protocol.Decisions = field(default_factory=protocol.Decisions)
    final_basis: np.ndarray | None = None

    def observe(
        self, state: protocol.EnsembleState, rec: protocol.EnsembleRecord
    ) -> None:
        if rec.members[0] == 0:  # members are listed in index order
            self.decisions.add_segment(rec)

    def write(self, path: str) -> str:
        """Write the trace file; returns the final basis hash its footer holds."""
        return protocol.write_trace(path, self.header, self.decisions, self.final_basis)


@dataclass
class ExperimentResult:
    """Aggregated curves plus the per-repetition final amplitudes."""

    ks: np.ndarray                   # (K,) recorded iteration counts
    stages: np.ndarray               # (K,) least-finished stage at each k
    fidelity_curves: np.ndarray      # (d, K), row j = F_j(k)
    search_curve: np.ndarray         # (K,) mean w after iteration k
    per_repetition_final: np.ndarray  # (N, d, d), [i, l, j] = |<l_E|D_i|j>|
    diag_residual: float             # mean over repetitions
    metadata: dict = field(default_factory=dict)
    trace: Trace | None = None       # repetition 0's decisions, when asked for

    @property
    def dim(self) -> int:
        return self.fidelity_curves.shape[0]

    def final_fidelities(self) -> np.ndarray:
        return self.fidelity_curves[:, -1].copy()


def run_experiment(config: ExperimentConfig, trace: bool = False) -> ExperimentResult:
    """Run every repetition in one ensemble and reduce them in index order.

    Repetition ``i`` is member ``i`` of one ensemble, run against the run's
    one environment, ``build_environment(config)``: the operator they all
    share or, when resampled, the stack's member ``i``.  How many members
    run beside it changes none of its bits.  With ``trace``, the result also
    holds repetition 0's decisions from this same run, ready to be written
    as a trace.
    Under a threshold rule it logs, at INFO, how many repetitions closed
    each stage by meeting ``w_min`` and how many by hitting the cap; every
    run then logs its iterations, which are the black-box calls, the probes
    the simulator evolved, the engine's rounds and their wall time, the
    fold's and the trace capture's included, and the fold's own wall time,
    its last flush after the rounds included, and its flushes.  Before the
    first round it logs the set-up: the environments built and their wall
    time, then the members seeded and the wall time of seeding them and of
    the rest of the set-up.

    Repetition ``i``'s agent is seeded with the first uint64 that NumPy's
    seed sequence of the entropy ``[seed, 17, i]`` generates;
    ``seeding.derive_seeds`` computes every such seed in one array pass.
    """
    start = time.perf_counter()
    n = config.repetitions
    env = build_environment(config)
    built = time.perf_counter()
    seeds = seeding.derive_seeds(config.seed, _REP_SALT, n)
    ensemble = protocol.EnsembleState(config.dim, config.params, config.stopping, seeds)
    fold = _Fold(config, env, ensemble)
    observer = fold.observe
    if trace:
        captured = Trace({"dim": config.dim, "rep_index": 0, "root_seed": config.seed,
                          "agent_seed": int(seeds[0])})

        def observer(state, rec):
            fold.observe(state, rec)
            captured.observe(state, rec)

    log.info("set-up: %d environments built in %.3f s, %d members seeded in %.3f s",
             len(env.operators), built - start, n, time.perf_counter() - built)
    start = time.perf_counter()
    run_stages(ensemble, _black_box(env), observer)
    seconds = time.perf_counter() - start
    result = fold.finalize(ensemble, env)
    if config.stopping.kind == "threshold":
        for t, met in enumerate(ensemble.reached_w_min.tolist()):
            log.info("stage %d: %d repetitions reached w_min, %d hit max_iterations",
                     t, met, n - met)
    log.info("%d iterations (black-box calls), %d probes evolved (a simulator cost), "
             "%d engine rounds in %.3f s, %.1f us per round; the fold %.3f s, %d flushes",
             ensemble.k - 1, ensemble.evolved, ensemble.rounds, seconds,
             1e6 * seconds / ensemble.rounds, fold.seconds, fold.flushes)
    if trace:
        captured.final_basis = ensemble.bases[0].copy()
        result.trace = captured
    return result


# ---------------------------------------------------------------------------
# result files


def write_results(result: ExperimentResult, path: str, fmt: str = "csv") -> None:
    """Serialize curves; identical results produce byte-identical files."""
    if len(result.ks) == 0:
        raise ConfigError("result has no recorded points")
    if fmt == "csv":
        d = result.dim
        lines = ["# " + json.dumps(result.metadata, sort_keys=True)]
        lines.append("k,stage,W," + ",".join(f"F_{j}" for j in range(d)))
        # one row of fidelities at a time: the whole table as Python floats
        # would add a quarter MB to the peak RSS of an 851-point run
        fidelities = result.fidelity_curves.T
        for idx, (k, stage, w) in enumerate(zip(result.ks.tolist(), result.stages.tolist(),
                                                result.search_curve.tolist())):
            lines.append(",".join([str(k), str(stage), repr(w),
                                   *map(repr, fidelities[idx].tolist())]))
        payload = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    elif fmt == "json":
        doc = {
            "metadata": result.metadata,
            "ks": result.ks.tolist(),
            "stages": result.stages.tolist(),
            "search_curve": result.search_curve.tolist(),
            "fidelity_curves": result.fidelity_curves.tolist(),
            "per_repetition_final": result.per_repetition_final.tolist(),
            "diag_residual": result.diag_residual,
        }
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")


# ---------------------------------------------------------------------------
# basis files


def save_basis(path: str, basis: np.ndarray) -> None:
    """Write a learned basis as JSON (real and imaginary parts separately)."""
    basis = np.asarray(basis, dtype=complex)
    linalg.require_square(basis)
    doc = {
        "dim": basis.shape[0],
        "entries_re": basis.real.tolist(),
        "entries_im": basis.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_basis(path: str) -> np.ndarray:
    """The unitary matrix of a basis file; raises ConfigError on any defect."""
    matrix = parse_matrix(read_json(path, "basis"), f"basis {path}")
    with np.errstate(all="ignore"):  # huge entries overflow to inf or NaN, which fail it
        defect = linalg.unitarity_defect(matrix)
    if not defect <= BASIS_UNITARITY_TOL:
        raise ConfigError(
            f"basis {path} is not unitary: |D^H D - I| = {defect:.3e} "
            f"exceeds {BASIS_UNITARITY_TOL:.0e}"
        )
    return matrix
