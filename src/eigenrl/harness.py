"""Monte Carlo driver: repeated runs, aggregate curves, result files.

A single experiment repeats the learning protocol ``repetitions`` times
against a configured environment and aggregates two curves over the
iteration count k: the mean fidelity F_j(k) between basis column j and
the environment's eigenvectors, and the mean search range W(k).

All repetitions run together in one lockstep ensemble, and every curve
point is a sum over repetitions taken in index order, so each repetition
matches a lone agent bit for bit and the results do not depend on how
the work is scheduled.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
)
from .errors import ConfigError, DimMismatch, ModeMismatch, OutOfRange
from .linalg import MAX_DIM, MIN_DIM
from .protocol import AgentState, RewardParams, StoppingRule, run_stages

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


_REQUIRED_KEYS = ("dim", "env_kind", "r", "nu", "repetitions", "seed", "stopping")
_OPTIONAL_KEYS = (
    "tau",
    "w1",
    "w_cap",
    "env_seed",
    "resample_env_per_repetition",
    "fidelity_mode",
    "record_every",
    "single_qubit",
    "operator_file",
)


def _as_int(raw: dict, key: str) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _as_float(raw: dict, key: str) -> float:
    return finite_number(raw[key], key)


def _as_bool(raw: dict, key: str) -> bool:
    value = raw[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _parse_stopping(raw) -> StoppingRule:
    if not isinstance(raw, dict):
        raise ConfigError(f"stopping must be an object, got {raw!r}")
    kind = raw.get("kind")
    if kind == "fixed-budget":
        allowed = {"kind", "budgets"}
        budgets = raw.get("budgets")
        if not isinstance(budgets, list) or not budgets:
            raise ConfigError("fixed-budget stopping needs a non-empty budgets list")
        for b in budgets:
            if isinstance(b, bool) or not isinstance(b, int):
                raise ConfigError(f"budgets must be integers, got {b!r}")
        rule = StoppingRule(kind="fixed-budget", budgets=tuple(budgets))
    elif kind == "threshold":
        allowed = {"kind", "w_min", "max_iterations"}
        kw = {}
        if "w_min" in raw:
            kw["w_min"] = _as_float(raw, "w_min")
        if "max_iterations" in raw:
            kw["max_iterations"] = _as_int(raw, "max_iterations")
        rule = StoppingRule(kind="threshold", **kw)
    else:
        raise ConfigError(f"stopping.kind must be fixed-budget or threshold, got {kind!r}")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown stopping keys: {unknown}")
    return rule


def _parse_single_qubit(raw) -> SingleQubitSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"single_qubit must be an object, got {raw!r}")
    wanted = {"alpha", "beta", "lambda0", "lambda1"}
    if set(raw) != wanted:
        raise ConfigError(
            f"single_qubit needs exactly the keys {sorted(wanted)}, "
            f"got {sorted(raw)}"
        )
    return SingleQubitSpec(**{key: _as_float(raw, key) for key in wanted})


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON; unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = sorted(set(_REQUIRED_KEYS) - set(raw))
    if missing:
        raise ConfigError(f"missing config keys: {missing}")

    kwargs = {
        "dim": _as_int(raw, "dim"),
        "env_kind": raw["env_kind"],
        "r": _as_float(raw, "r"),
        "nu": _as_float(raw, "nu"),
        "repetitions": _as_int(raw, "repetitions"),
        "seed": _as_int(raw, "seed"),
        "stopping": _parse_stopping(raw["stopping"]),
    }
    if "tau" in raw:
        kwargs["tau"] = _as_float(raw, "tau")
    if "w1" in raw:
        kwargs["w1"] = _as_float(raw, "w1")
    if "w_cap" in raw:
        kwargs["w_cap"] = math.inf if raw["w_cap"] is None else _as_float(raw, "w_cap")
    if "env_seed" in raw:
        kwargs["env_seed"] = _as_int(raw, "env_seed")
    if "resample_env_per_repetition" in raw:
        kwargs["resample_env_per_repetition"] = _as_bool(
            raw, "resample_env_per_repetition"
        )
    if "fidelity_mode" in raw:
        kwargs["fidelity_mode"] = raw["fidelity_mode"]
    if "record_every" in raw:
        kwargs["record_every"] = _as_int(raw, "record_every")
    if "single_qubit" in raw and raw["single_qubit"] is not None:
        kwargs["single_qubit"] = _parse_single_qubit(raw["single_qubit"])
    if "operator_file" in raw and raw["operator_file"] is not None:
        path = raw["operator_file"]
        if not isinstance(path, str):
            raise ConfigError(f"operator_file must be a path string, got {path!r}")
        kwargs["operator_file"] = path
    return ExperimentConfig(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Full echo of a config, invertible through config_from_dict."""
    stopping: dict = {"kind": config.stopping.kind}
    if config.stopping.kind == "fixed-budget":
        stopping["budgets"] = list(config.stopping.budgets)
    else:
        stopping["w_min"] = config.stopping.w_min
        stopping["max_iterations"] = config.stopping.max_iterations
    out = {
        "dim": config.dim,
        "env_kind": config.env_kind,
        "tau": config.tau,
        "r": config.r,
        "nu": config.nu,
        "w1": config.w1,
        "w_cap": None if math.isinf(config.w_cap) else config.w_cap,
        "repetitions": config.repetitions,
        "seed": config.seed,
        "env_seed": config.env_seed,
        "stopping": stopping,
        "resample_env_per_repetition": config.resample_env_per_repetition,
        "fidelity_mode": config.fidelity_mode,
        "record_every": config.record_every,
    }
    if config.single_qubit is not None:
        spec = config.single_qubit
        out["single_qubit"] = {
            "alpha": spec.alpha,
            "beta": spec.beta,
            "lambda0": spec.lambda0,
            "lambda1": spec.lambda1,
        }
    if config.operator_file is not None:
        out["operator_file"] = config.operator_file
    return out


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _resampled_env_seed(config: ExperimentConfig, rep_index: int) -> int:
    return derive_seed(config.seed, rep_index, _ENV_SALT)


def build_environment(config: ExperimentConfig, rep_index: int = 0) -> Environment:
    """The environment repetition ``rep_index`` runs against."""
    kind = config.env_kind
    if kind == "random":
        if config.resample_env_per_repetition:
            env_seed = _resampled_env_seed(config, rep_index)
        else:
            env_seed = config.env_seed
        env = env_random(config.dim, config.tau, env_seed)
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


def diag_residual(basis: np.ndarray, operator: np.ndarray) -> float:
    """Relative Frobenius weight of what D fails to diagonalize away."""
    basis = np.asarray(basis, dtype=complex)
    operator = np.asarray(operator, dtype=complex)
    if basis.shape != operator.shape or basis.ndim != 2:
        raise DimMismatch(
            f"basis shape {basis.shape} does not match operator {operator.shape}"
        )
    transformed = basis.conj().T @ operator @ basis
    off = transformed - np.diag(np.diag(transformed))
    denom = float(np.linalg.norm(operator))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(off) / denom)


def _pick(stacked: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The items of ``members`` from a stack over the environments: the
    whole stack when one environment is shared, else one item each."""
    return stacked if len(stacked) == 1 else stacked[members]


def _black_box(envs: list[Environment]):
    """Batched ``interact(members, probes)`` over one shared or N environments.

    Row ``j`` is evolved by the stacked form of ``Environment.interact``,
    which gives the same bits as the single-vector product.
    """
    unitaries = np.stack([env.unitary for env in envs])

    def interact(members: np.ndarray, probes: np.ndarray) -> np.ndarray:
        return (_pick(unitaries, members) @ probes[:, :, None])[:, :, 0]

    return interact


class _Fold:
    """Sums over repetitions at each recorded k, taken in repetition order.

    ``rows`` holds one row per repetition: its search range, then either
    its |<l_E|D|j>| matrix ("paper" mode) or that matrix's column maxima
    ("per-rep" mode).  A running repetition refreshes its row at each
    recorded k.  One that has stopped keeps contributing its final range
    and amplitudes ("paper") or its last recorded maxima ("per-rep"), so
    threshold-mode curves stay flat after convergence instead of dropping
    out of the average.
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
                self.rows[stopped, 1:] = self._features(stopped, state.bases[stopped])
            self.running = rec.members
        members = rec.members
        self.rows[members, 0] = rec.w_after
        self.rows[members, 1:] = self._features(members, state.bases[members])
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
            raise AssertionError("fidelity left [0, 1]: unitarity was lost")
        fidelity = np.minimum(fidelity, 1.0)
        residual_sum = 0.0
        for i in range(n):  # envs holds one shared environment or one per repetition
            residual_sum += diag_residual(state.bases[i], envs[i % len(envs)].operator)
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
class ExperimentResult:
    """Aggregated curves plus the per-repetition final amplitudes."""

    ks: np.ndarray                   # (K,) recorded iteration counts
    stages: np.ndarray               # (K,) least-finished stage at each k
    fidelity_curves: np.ndarray      # (d, K), row j = F_j(k)
    search_curve: np.ndarray         # (K,) mean w after iteration k
    per_repetition_final: np.ndarray  # (N, d, d), [i, l, j] = |<l_E|D_i|j>|
    diag_residual: float             # mean over repetitions
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.fidelity_curves.shape[0]

    def final_fidelities(self) -> np.ndarray:
        return self.fidelity_curves[:, -1].copy()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every repetition in lockstep and reduce them in index order.

    Repetition ``i`` is member ``i`` of one ensemble, run against
    ``build_environment(config, i)``; it has the bits of the one-member
    view ``AgentState(dim, params, derive_seed(seed, i))`` running alone.
    Resampled environments are built together, with the same bits.
    """
    n = config.repetitions
    if config.resample_env_per_repetition:
        seeds = [_resampled_env_seed(config, i) for i in range(n)]
        envs = envs_random(config.dim, config.tau, seeds)
    else:
        envs = [build_environment(config)]
    ensemble = protocol.EnsembleState(
        config.dim, config.params, [derive_seed(config.seed, i) for i in range(n)]
    )
    fold = _Fold(config, envs, ensemble)
    run_stages(ensemble, _black_box(envs), config.stopping, fold.observe)
    return fold.finalize(ensemble, envs)


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


def read_results(path: str) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a CSV result file back into (metadata, ks, stages, W, F)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read results {path}: {exc}") from exc
    if len(lines) < 3 or not lines[0].startswith("# "):
        raise ConfigError(f"{path} is not a results CSV")
    header = lines[1].split(",")
    if header[:3] != ["k", "stage", "W"]:
        raise ConfigError(f"unexpected header in {path}: {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:] if line]
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"{path} has rows that do not match its header")
    try:
        metadata = json.loads(lines[0][2:])
        ks = np.array([int(row[0]) for row in rows])
        stages = np.array([int(row[1]) for row in rows])
        search = np.array([float(row[2]) for row in rows])
        fidelity = np.array(
            [[float(row[3 + j]) for row in rows] for j in range(len(header) - 3)]
        )
    except ValueError as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    return metadata, ks, stages, search, fidelity


# ---------------------------------------------------------------------------
# basis files and traces


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
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read basis {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise ConfigError(f"basis {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"dim", "entries_re", "entries_im"}:
        raise ConfigError(f"basis {path} needs the keys dim/entries_re/entries_im")
    try:
        re = np.asarray(doc["entries_re"], dtype=float)
        im = np.asarray(doc["entries_im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"basis {path} entries are not numeric: {exc}") from exc
    dim = doc["dim"]
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ConfigError(
            f"basis {path} entries are {re.shape} and {im.shape}, not {dim}x{dim}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ConfigError(f"basis {path} entries must be finite")
    matrix = re + 1j * im
    with np.errstate(all="ignore"):  # huge entries overflow to inf or NaN, which fail it
        defect = float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(len(matrix))))
    if not defect <= BASIS_UNITARITY_TOL:
        raise ConfigError(
            f"basis {path} is not unitary: |D^H D - I| = {defect:.3e} "
            f"exceeds {BASIS_UNITARITY_TOL:.0e}"
        )
    return matrix


def record_trace(config: ExperimentConfig, path: str, rep_index: int = 0) -> str:
    """Re-run one repetition and write its full decision trace.

    The repetition runs through the one engine as a one-member
    ``AgentState``, so it makes the decisions it made in
    ``run_experiment``.  Returns the SHA-256 of the final basis, the same
    hash the trace footer stores and ``replay_trace`` recomputes.
    """
    if not 0 <= rep_index < config.repetitions:
        raise OutOfRange(
            f"rep_index {rep_index} outside [0, {config.repetitions})"
        )
    env = build_environment(config, rep_index)
    agent = AgentState(
        dim=config.dim,
        params=config.params,
        seed=derive_seed(config.seed, rep_index),
    )
    records: list[protocol.IterationRecord] = []
    run_stages(
        agent, env.interact, config.stopping, lambda a, rec: records.append(rec)
    )
    header = {
        "dim": config.dim,
        "rep_index": rep_index,
        "root_seed": config.seed,
        "agent_seed": derive_seed(config.seed, rep_index),
    }
    protocol.write_trace(path, header, records, agent.basis)
    return protocol.basis_hash(agent.basis)
