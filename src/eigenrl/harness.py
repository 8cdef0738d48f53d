"""Monte Carlo driver: repeated runs, aggregate curves, result files.

A single experiment repeats the learning protocol ``repetitions`` times
against a configured environment and aggregates two curves over the
iteration count k: the mean fidelity F_j(k) between basis column j and
the environment's eigenvectors, and the mean search range W(k).

All repetitions run together in one lockstep ensemble, and every curve
point is a sum over repetitions taken in index order, so each repetition
matches a lone agent bit for bit and the results do not depend on how
the work is scheduled.  A trace of repetition 0 is captured from the same
run, so it audits the decisions behind the results.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__, linalg, protocol
from .environment import (
    Environment,
    SingleQubitSpec,
    env_bell,
    env_from_matrix,
    env_random,
    env_single_qubit,
    env_spin_x,
    envs_random,
    finite_number,
    load_operator,
    parse_matrix,
    read_json,
)
from .errors import ConfigError, DimMismatch, EigenrlError, ModeMismatch
from .linalg import MAX_DIM, MIN_DIM
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


def derive_seed(root: int, index: int, salt: int = _REP_SALT) -> int:
    """Independent child seed for repetition ``index`` of a run seeded ``root``."""
    seq = np.random.SeedSequence([root, salt, index])
    return int(seq.generate_state(1, np.uint64)[0])


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
        if not MIN_DIM <= self.dim <= MAX_DIM:
            raise ConfigError(f"dim must lie in [{MIN_DIM}, {MAX_DIM}], got {self.dim}")
        if self.seed < 0 or self.env_seed < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seed} and {self.env_seed}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau}")
        if self.fidelity_mode not in FIDELITY_MODES:
            raise ConfigError(
                f"fidelity_mode must be one of {FIDELITY_MODES}, "
                f"got {self.fidelity_mode!r}"
            )
        if self.fidelity_mode == "paper" and self.resample_env_per_repetition:
            raise ModeMismatch(
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


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


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
        if not isinstance(budgets, list) or not budgets:
            raise ConfigError("fixed-budget stopping needs a non-empty budgets list")
        rule = StoppingRule(kind=kind, budgets=tuple(_integer(b, "budgets") for b in budgets))
    elif kind == "threshold":
        allowed = {"kind", "w_min", "max_iterations"}
        kw = {}
        if "w_min" in raw:
            kw["w_min"] = finite_number(raw["w_min"], "w_min")
        if "max_iterations" in raw:
            kw["max_iterations"] = _integer(raw["max_iterations"], "max_iterations")
        rule = StoppingRule(kind=kind, **kw)
    else:
        raise ConfigError(f"stopping.kind must be fixed-budget or threshold, got {kind!r}")
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
    "dim": _integer,
    "env_kind": lambda value, key: value,  # checked by ExperimentConfig
    "r": finite_number,
    "nu": finite_number,
    "repetitions": _integer,
    "seed": _integer,
    "stopping": _parse_stopping,
    "tau": finite_number,
    "w1": finite_number,
    "w_cap": lambda value, key: math.inf if value is None else finite_number(value, key),
    "env_seed": _integer,
    "resample_env_per_repetition": _boolean,
    "fidelity_mode": lambda value, key: value,  # checked by ExperimentConfig
    "record_every": _integer,
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
    """The environment of a run whose repetitions share one."""
    kind = config.env_kind
    if kind == "random":
        env = env_random(config.dim, config.tau, config.env_seed)
    elif kind == "single-qubit-spec":
        env = env_single_qubit(config.single_qubit, config.tau)
    elif kind == "spin-x":
        env = env_spin_x(config.tau)
    elif kind == "bell":
        env = env_bell(config.tau)
    else:  # file
        operator, _ = load_operator(config.operator_file)
        env = env_from_matrix(operator, config.tau)
    if env.dim != config.dim:
        raise ConfigError(
            f"config dim {config.dim} but the {kind} environment has dim {env.dim}"
        )
    return env


# ---------------------------------------------------------------------------
# lockstep execution and the streaming reduction


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each C-contiguous complex matrix of a stack, with
    its bits: it sums the strided real and imaginary views with BLAS ddot,
    as one (1, m) @ (m, 1) product each.  Contiguous copies of the parts
    would be summed by another ddot kernel, with other last bits."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def diag_residual(bases: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Relative Frobenius weight ``|offdiag(D^H O D)| / |O|`` of what each D
    fails to diagonalize away, for each basis of a complex (N, d, d) stack
    against one shared operator, a (1, d, d) stack, or one operator each."""
    d = bases.shape[-1]
    if not bases.shape[1:] == operators.shape[1:] == (d, d) or len(operators) not in (1, len(bases)):
        raise DimMismatch(f"bases {bases.shape} do not match operators {operators.shape}")
    transformed = bases.conj().transpose(0, 2, 1) @ operators @ bases
    diagonal = np.arange(d)
    transformed[:, diagonal, diagonal] = 0.0
    denom = _frobenius(operators)
    residuals = np.zeros(len(bases))
    np.divide(_frobenius(transformed), denom, out=residuals, where=denom != 0.0)
    return residuals


def _pick(stacked: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The items of ``members`` from a stack over the environments: the
    whole stack when one environment is shared, else one item each."""
    return stacked if len(stacked) == 1 else stacked[members]


def _black_box(envs: list[Environment]):
    """Batched ``interact(members, probes)`` over one shared or N environments.

    Row ``j`` of ``probes`` is sent through member ``members[j]``'s
    environment: one application of its ``unitary``, ``exp(-i tau O)``.
    This is the only black box the learner is handed.
    """
    unitaries = np.stack([env.unitary for env in envs])

    def interact(members: np.ndarray, probes: np.ndarray) -> np.ndarray:
        return (_pick(unitaries, members) @ probes[:, :, None])[:, :, 0]

    return interact


class _Fold:
    """Sums over repetitions at each recorded k, taken in repetition order.

    ``rows`` holds one row per repetition: its search range, then either
    its |<l_E|D|j>| matrix ("paper" mode) or that matrix's column maxima
    ("per-rep" mode).  A running repetition refreshes its search range at
    each recorded k, and its amplitudes only when its basis changed since
    they were computed: ``seen[i]`` is the k of row ``i``'s amplitudes, and
    the ensemble's ``changed[i]`` the k of basis ``i``'s last change.  One
    that has stopped keeps contributing its final range and amplitudes
    ("paper") or its last recorded maxima ("per-rep"), so threshold-mode
    curves stay flat after convergence instead of dropping out of the
    average.
    """

    def __init__(self, config: ExperimentConfig, envs: list[Environment],
                 ensemble: protocol.EnsembleState) -> None:
        n, d = config.repetitions, config.dim
        self.config = config
        self.paper = config.fidelity_mode == "paper"
        # conj here and transpose as a view later, so each item is laid out
        # as eigenvectors.conj().T is
        self._vconj = np.stack(
            [env.eigensystem_oracle().eigenvectors.conj() for env in envs]
        )
        self.rows = np.empty((n, 1 + (d * d if self.paper else d)))
        self.rows[:, 0] = config.w1
        self.rows[:, 1:] = self._features(ensemble.active, ensemble.bases)
        self.seen = np.zeros(n, dtype=np.int64)
        self.last_w = np.full(n, config.w1)
        self.running = ensemble.active
        self.w_sums: list[float] = []
        self.fidelity_sums: list[np.ndarray] = []
        self.stage_min: list[int] = []
        self._reduce(0)

    def _amplitudes(self, members: np.ndarray, bases: np.ndarray) -> np.ndarray:
        return np.abs(_pick(self._vconj, members).transpose(0, 2, 1) @ bases)

    def _features(self, members: np.ndarray, bases: np.ndarray) -> np.ndarray:
        amp = self._amplitudes(members, bases)
        return amp.reshape(len(amp), -1) if self.paper else amp.max(axis=1)

    def _reduce(self, stage_min: int) -> None:
        sums = np.add.reduce(self.rows, axis=0)  # a sequential fold down axis 0
        d = self.config.dim
        self.w_sums.append(sums[0])
        if self.paper:
            self.fidelity_sums.append(sums[1:].reshape(d, d).max(axis=0))
        else:
            self.fidelity_sums.append(sums[1:])
        self.stage_min.append(stage_min)

    def _refresh(self, state: protocol.EnsembleState, members: np.ndarray, k: int) -> None:
        """Recompute the amplitudes of the listed rows whose basis moved."""
        stale = members[state.changed[members] > self.seen[members]]
        if stale.size:
            self.rows[stale, 1:] = self._features(stale, state.bases[stale])
            self.seen[stale] = k

    def observe(
        self, state: protocol.EnsembleState, rec: protocol.EnsembleRecord
    ) -> None:
        self.last_w[rec.members] = rec.w_after
        if rec.k % self.config.record_every:
            return
        if len(rec.members) < len(self.running):
            stopped = np.setdiff1d(self.running, rec.members, assume_unique=True)
            self.rows[stopped, 0] = self.last_w[stopped]
            if self.paper:
                self._refresh(state, stopped, rec.k)
            self.running = rec.members
        self.rows[rec.members, 0] = rec.w_after
        self._refresh(state, rec.members, rec.k)
        # a stopped repetition's stage, d - 1, lies above every running one
        self._reduce(int(rec.stage.min()))

    def finalize(self, state: protocol.EnsembleState,
                 envs: list[Environment]) -> "ExperimentResult":
        config = self.config
        n = config.repetitions
        ks = np.arange(len(self.w_sums)) * config.record_every
        search = np.asarray(self.w_sums) / n
        fidelity = np.stack(self.fidelity_sums).T / n  # (d, K)
        if fidelity.max(initial=0.0) > 1.0 + 1e-9:
            raise EigenrlError("fidelity left [0, 1]: unitarity was lost")
        fidelity = np.minimum(fidelity, 1.0)
        operators = np.stack([env.operator for env in envs])
        residual_sum = 0.0
        for residual in diag_residual(state.bases, operators).tolist():
            residual_sum += residual  # one by one in repetition order; np.sum pairs them
        metadata = {
            "format": RESULTS_FORMAT,
            "config": config_to_dict(config),
            "code_version": code_version(),
            "longest_run": int(state.calls.max()),
        }
        return ExperimentResult(
            ks=ks,
            stages=np.asarray(self.stage_min, dtype=np.int64),
            fidelity_curves=fidelity,
            search_curve=search,
            per_repetition_final=self._amplitudes(np.arange(n), state.bases),
            diag_residual=residual_sum / n,
            metadata=metadata,
        )


@dataclass
class Trace:
    """Repetition 0's decisions, captured from the lockstep run as it goes."""

    header: dict
    records: list[protocol.IterationRecord] = field(default_factory=list)
    final_basis: np.ndarray | None = None

    def observe(
        self, state: protocol.EnsembleState, rec: protocol.EnsembleRecord
    ) -> None:
        if rec.members[0] == 0:  # members are listed in index order
            self.records.append(protocol.first_record(rec))

    def write(self, path: str) -> str:
        """Write the trace file; returns the final basis hash its footer holds."""
        protocol.write_trace(path, self.header, self.records, self.final_basis)
        return protocol.basis_hash(self.final_basis)


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
    """Run every repetition in lockstep and reduce them in index order.

    Repetition ``i`` is member ``i`` of one ensemble, run against the
    shared ``build_environment(config)`` or, when resampled, a random
    operator of its own; how many members run beside it changes none of
    its bits.  Resampled environments are built together, with the bits
    each would have alone.  With ``trace``, the result also holds repetition
    0's decisions from this same run, ready to be written as a trace.
    Under a threshold rule it logs, at INFO, how many repetitions closed
    each stage by meeting ``w_min`` and how many by hitting the cap.
    """
    n = config.repetitions
    if config.resample_env_per_repetition:
        seeds = [derive_seed(config.seed, i, _ENV_SALT) for i in range(n)]
        envs = envs_random(config.dim, config.tau, seeds)
    else:
        envs = [build_environment(config)]
    ensemble = protocol.EnsembleState(
        config.dim, config.params, [derive_seed(config.seed, i) for i in range(n)]
    )
    fold = _Fold(config, envs, ensemble)
    observer = fold.observe
    if trace:
        captured = Trace({"dim": config.dim, "rep_index": 0, "root_seed": config.seed,
                          "agent_seed": derive_seed(config.seed, 0)})

        def observer(state, rec):
            fold.observe(state, rec)
            captured.observe(state, rec)

    run_stages(ensemble, _black_box(envs), config.stopping, observer)
    if config.stopping.kind == "threshold":
        for t, (met, capped) in enumerate(zip(ensemble.reached_w_min.tolist(),
                                              ensemble.hit_max_iterations.tolist())):
            log.info("stage %d: %d repetitions reached w_min, %d hit max_iterations",
                     t, met, capped)
    result = fold.finalize(ensemble, envs)
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
        for idx in range(len(result.ks)):
            cells = [
                str(int(result.ks[idx])),
                str(int(result.stages[idx])),
                repr(float(result.search_curve[idx])),
            ]
            cells += [repr(float(result.fidelity_curves[j, idx])) for j in range(d)]
            lines.append(",".join(cells))
        payload = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    elif fmt == "json":
        doc = {
            "metadata": result.metadata,
            "ks": [int(v) for v in result.ks],
            "stages": [int(v) for v in result.stages],
            "search_curve": [float(v) for v in result.search_curve],
            "fidelity_curves": [
                [float(v) for v in row] for row in result.fidelity_curves
            ],
            "per_repetition_final": [
                [[float(v) for v in row] for row in mat]
                for mat in result.per_repetition_final
            ],
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
        defect = float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(len(matrix))))
    if not defect <= BASIS_UNITARITY_TOL:
        raise ConfigError(
            f"basis {path} is not unitary: |D^H D - I| = {defect:.3e} "
            f"exceeds {BASIS_UNITARITY_TOL:.0e}"
        )
    return matrix
