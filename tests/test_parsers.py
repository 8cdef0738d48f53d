"""Property tests: every parser of user input raises ConfigError and nothing else.

Each test perturbs a valid document at any depth (a value swapped for an
edge value or arbitrary JSON, a key dropped or added), or feeds raw text and
bytes, and checks that the parser either rejects the input with
``ConfigError`` or returns something the rest of the program can use.  The
``@example`` inputs are defects that once got past these parsers.  The
generated examples are derandomized so the suite stays reproducible.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenrl import harness, linalg, protocol, seeding
from eigenrl.environment import load_operator
from eigenrl.errors import ConfigError
from eigenrl.linalg import MAX_DIM, MIN_DIM
from results import read_results

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

edge_values = st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 100, 10**400, "abc"])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | edge_values
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def rarely(strategy, otherwise):
    """Draws from ``strategy`` one time in ten, else gives ``otherwise``."""
    return st.integers(0, 9).flatmap(lambda pick: strategy if pick == 0 else st.just(otherwise))


def perturbed(doc):
    """``doc``, with any value at any depth possibly replaced by an edge value
    or arbitrary JSON, and any object possibly missing a key or holding an
    extra one.  Most values stay valid, so deep checks are reached too."""
    if isinstance(doc, dict):
        keys = sorted(doc)
        inner = st.builds(
            lambda kept, drop, extra: {
                **{k: v for k, v in kept.items() if k != drop}, **extra
            },
            st.fixed_dictionaries({key: perturbed(doc[key]) for key in keys}),
            rarely(st.sampled_from(keys), None),
            rarely(st.dictionaries(st.text(max_size=6), json_values, min_size=1, max_size=1), {}),
        )
    elif isinstance(doc, list):
        inner = st.tuples(*(perturbed(item) for item in doc)).map(list)
    else:
        inner = st.just(doc)
    return st.integers(0, 9).flatmap(
        lambda pick: json_values if pick == 0 else edge_values if pick == 1 else inner
    )


def as_text(doc):
    return json.dumps(doc)  # NaN and Infinity become the bare tokens json accepts


raw_inputs = st.text(max_size=40) | st.binary(max_size=40)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers") / "input"


def write(path, payload):
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload, encoding="utf-8")
    return str(path)


VALID_CONFIG = {
    "dim": 2,
    "env_kind": "single-qubit-spec",
    "single_qubit": {"alpha": 1.0, "beta": 0.5, "lambda0": -1.0, "lambda1": 1.0},
    "tau": 1.0,
    "r": 0.9,
    "nu": 2.0,
    "w1": 1.0,
    "w_cap": 1.0,
    "repetitions": 10,
    "seed": 3,
    "env_seed": 0,
    "resample_env_per_repetition": False,
    "fidelity_mode": "per-rep",
    "record_every": 5,
    "stopping": {"kind": "threshold", "w_min": 0.01, "max_iterations": 500},
}


@PROPERTY
@given(perturbed(VALID_CONFIG) | perturbed({**VALID_CONFIG, "env_kind": "random",
                                             "single_qubit": None,
                                             "stopping": {"kind": "fixed-budget",
                                                          "budgets": [40]}}))
@example({**VALID_CONFIG, "nu": math.nan})
@example({**VALID_CONFIG, "w1": math.inf})
@example({**VALID_CONFIG, "dim": 100})
@example({**VALID_CONFIG, "seed": -1})
@example({**VALID_CONFIG, "dim": None})  # a required key
@example({**VALID_CONFIG, "tau": None})  # a key with a default
@example({**VALID_CONFIG, "w_cap": None})  # null means uncapped
@example({**VALID_CONFIG, "env_kind": "random", "single_qubit": None})
@example({**VALID_CONFIG, "env_kind": "random", "single_qubit": None, "operator_file": None})
@example({**VALID_CONFIG, "repetitions": 5_000_000_000})
@example({**VALID_CONFIG, "record_every": 2**70})
@example({**VALID_CONFIG, "stopping": {"kind": "threshold", "w_min": 0.01, "max_iterations": 2**63}})
@example({**VALID_CONFIG, "env_kind": "random", "single_qubit": None,
          "stopping": {"kind": "fixed-budget", "budgets": [2**63]}})
def test_config_from_dict_raises_only_config_error(raw):
    try:
        config = harness.config_from_dict(raw)
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in (config.r, config.nu, config.w1, config.tau))
    assert MIN_DIM <= config.dim <= MAX_DIM and min(config.seed, config.env_seed) >= 0
    # the engine's bounds: a uint32 member index, and iteration counts whose
    # int64 sums do not wrap
    assert 1 <= config.repetitions <= seeding.MAX_MEMBERS == 2**32
    counts = [config.record_every, config.stopping.max_iterations, *(config.stopping.budgets or ())]
    assert all(1 <= count <= protocol.MAX_COUNT for count in counts)
    echoed = json.loads(json.dumps(harness.config_to_dict(config)))
    assert harness.config_from_dict(echoed) == config
    for key, value in raw.items():
        if value is None:  # read only where null means something, never as the default
            assert getattr(config, key) == (math.inf if key == "w_cap" else None)


@PROPERTY
@given(raw_inputs | perturbed(VALID_CONFIG).map(as_text))
def test_load_config_raises_only_config_error(scratch, payload):
    try:
        harness.load_config(write(scratch, payload))
    except ConfigError:
        pass


VALID_OPERATOR = {
    "dim": 2,
    "tau": 0.5,
    "entries_re": [[1.0, 0.5], [0.5, -1.0]],
    "entries_im": [[0.0, 0.25], [-0.25, 0.0]],
}


@PROPERTY
@given(raw_inputs | perturbed(VALID_OPERATOR).map(as_text))
@example(as_text({**VALID_OPERATOR, "tau": "abc"}))
@example(as_text({**VALID_OPERATOR, "tau": math.nan}))
@example(as_text({**VALID_OPERATOR, "entries_re": [[0, 1], [0, 0]]}))
@example(as_text({**VALID_OPERATOR, "entries_im": [[0, 0.25], [0.25, 0]]}))
@example("[" * 100_000)
def test_load_operator_raises_only_config_error(scratch, payload):
    try:
        operator, tau = load_operator(write(scratch, payload))
    except ConfigError:
        return
    assert math.isfinite(tau)
    assert operator.shape == (2, 2) and np.isfinite(operator).all()
    assert linalg.hermiticity_defect(operator) <= linalg.HERMITICITY_TOL


VALID_BASIS = {
    "dim": 2,
    "entries_re": [[0.6, 0.8], [0.8, -0.6]],
    "entries_im": [[0.0, 0.0], [0.0, 0.0]],
}


@PROPERTY
@given(raw_inputs | perturbed(VALID_BASIS).map(as_text))
def test_load_basis_raises_only_config_error(scratch, payload):
    try:
        basis = harness.load_basis(write(scratch, payload))
    except ConfigError:
        return
    defect = np.linalg.norm(basis.conj().T @ basis - np.eye(len(basis)))
    assert defect <= harness.BASIS_UNITARITY_TOL


NOT_A_MATRIX = {
    "text entry": {"entries_re": [["0.6", 0.8], [0.8, -0.6]]},
    "bool entry": {"entries_im": [[False, 0.0], [0.0, 0.0]]},
    "null entry": {"entries_im": [[None, 0.0], [0.0, 0.0]]},
    "ragged rows": {"entries_re": [[0.6, 0.8], [0.8]]},
    "row not a list": {"entries_re": [[0.6, 0.8], 0.8]},
    "float dim": {"dim": 2.0},
    "bool dim": {"dim": True},
    "dim out of range": {"dim": 65},
}


@pytest.mark.parametrize("case", sorted(NOT_A_MATRIX))
def test_matrix_entries_must_be_json_numbers(scratch, case):
    """Operator and basis files share one rule: ``dim`` rows of ``dim`` numbers."""
    with pytest.raises(ConfigError):
        harness.load_basis(write(scratch, as_text({**VALID_BASIS, **NOT_A_MATRIX[case]})))
    operator = {**VALID_OPERATOR, **NOT_A_MATRIX[case]}
    if "entries_re" in NOT_A_MATRIX[case]:  # keep it Hermitian where it is a matrix
        operator["entries_im"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ConfigError):
        load_operator(write(scratch, as_text(operator)))


VALID_TRACE = [
    {"format": protocol.TRACE_FORMAT, "dim": 3, "rep_index": 0},
    {"k": 1, "stage": 0, "m": 2, "class": "punish",
     "angles": {"phi_x": 0.1, "phi_y": -0.2, "phi_z": 0.3}, "w_after": 2.2},
    {"k": 2, "stage": 0, "m": 0, "class": "reward", "angles": None, "w_after": 1.98},
    {"k": 3, "stage": 1, "m": 1, "class": "reward", "angles": None, "w_after": 0.9},
    {"final_sha256": "0" * 64},
]


def trace_text(rows):
    return "\n".join(json.dumps(row) for row in rows)


def with_row(i, **changes):
    rows = list(VALID_TRACE)
    rows[i] = {**rows[i], **changes}
    return trace_text(rows)


def with_punish(**changes):
    return with_row(1, **changes)


def with_reward(**changes):
    return with_row(2, **changes)


trace_texts = st.builds(
    lambda rows, drop: trace_text(row for i, row in enumerate(rows) if i not in drop),
    st.tuples(*map(perturbed, VALID_TRACE)),
    st.sets(st.integers(0, len(VALID_TRACE) - 1), max_size=1),
)


@PROPERTY
@given(raw_inputs | trace_texts)
@example(trace_text([{**VALID_TRACE[0], "dim": 100}, *VALID_TRACE[1:]]))
@example(with_punish(m=3))
@example(with_punish(stage=2, m=1))
@example(with_punish(angles=None))
@example(with_punish(angles={"phi_x": math.inf, "phi_y": 0.0, "phi_z": 0.0}))
@example(with_punish(w_after=10**400))
@example("[" * 100_000)
def test_read_trace_raises_only_config_error(scratch, payload):
    """A trace that parses can be replayed."""
    try:
        header, decisions, _ = protocol.read_trace(write(scratch, payload))
    except ConfigError:
        return
    assert MIN_DIM <= header["dim"] <= MAX_DIM
    punished = [(t, m) for t, m in zip(decisions.stage, decisions.outcome) if m > t]
    assert all(0 <= t < m < header["dim"] for t, m in punished)
    assert [len(phi) for phi in decisions.angles] == [3] * len(punished)
    assert len(decisions.outcome) == len(decisions.w_after) == len(decisions.stage)
    basis = protocol.replay_basis(header["dim"], decisions)
    assert basis.shape == (header["dim"], header["dim"])


NOT_A_TRACE = {
    "number footer": [*VALID_TRACE[:-1], {"final_sha256": 123}],
    "null footer": [*VALID_TRACE[:-1], {"final_sha256": None}],
    "short footer": [*VALID_TRACE[:-1], {"final_sha256": "00"}],
    "upper-case footer": [*VALID_TRACE[:-1], {"final_sha256": "A" * 64}],
    "fractional k": with_punish(k=1.7),
    "bool k": with_punish(k=True),
    "text m": with_punish(m="2"),
    "stage past the last": with_punish(stage=2, m=2, angles=None, **{"class": "reward"}),
    "negative outcome": with_punish(m=-1, angles=None, **{"class": "neutral"}),
    "bogus class": with_punish(**{"class": "bogus"}),
    "reward class on a punish": with_punish(**{"class": "reward"}),
    "angles on a reward": with_punish(m=0, **{"class": "reward"}),
    "text angle": with_punish(angles={"phi_x": "0.1", "phi_y": 0.0, "phi_z": 0.0}),
    "text w_after": with_punish(w_after="2.2"),
    "w_after NaN": with_punish(w_after=math.nan),
    "w_after negative": with_punish(w_after=-1.0),
    "extra key": with_punish(note=1),
    "k from 0": with_punish(k=0),
    "k from 7": with_punish(k=7),
    "k skips one": with_reward(k=3),
    "k repeats": with_reward(k=1),
    "first stage past 0": with_punish(stage=1),
    "stage skips one": trace_text([{**VALID_TRACE[0], "dim": 4}, VALID_TRACE[1],
                                   {**VALID_TRACE[2], "stage": 2, "m": 2}, VALID_TRACE[-1]]),
    "stage falls": trace_text([*VALID_TRACE[:2], {**VALID_TRACE[2], "stage": 1, "m": 1},
                               {**VALID_TRACE[2], "k": 3}, VALID_TRACE[-1]]),
    "no records": trace_text([VALID_TRACE[0], VALID_TRACE[-1]]),
    "ends before the last stage": trace_text([*VALID_TRACE[:3], VALID_TRACE[-1]]),
}


def test_the_valid_trace_reads(scratch):
    """VALID_TRACE reads, so each NOT_A_TRACE case fails on the rule it breaks."""
    _, decisions, _ = protocol.read_trace(write(scratch, trace_text(VALID_TRACE)))
    assert (decisions.stage, decisions.outcome) == ([0, 0, 1], [2, 0, 1])  # k 1, 2, 3
    assert decisions.angles == [[0.1, -0.2, 0.3]]


@pytest.mark.parametrize("case", sorted(NOT_A_TRACE))
def test_read_trace_holds_records_to_the_run_rules(scratch, case):
    """Each record is one a run could write, in the order a run writes them,
    and the footer is a SHA-256."""
    payload = NOT_A_TRACE[case]
    with pytest.raises(ConfigError):
        protocol.read_trace(write(scratch, payload if isinstance(payload, str)
                                  else trace_text(payload)))


csv_cells = st.sampled_from(["0", "1", "0.5", "nan", "-3", "1e400", "", "x", "1,2"])
csv_rows = st.lists(csv_cells, min_size=1, max_size=5).map(",".join)


# read_results is the tests' own reader (tests/results.py), held to the same rule
@PROPERTY
@given(
    raw_inputs
    | st.builds(
        lambda meta, header, rows: "\n".join(["# " + meta, header, *rows]) + "\n",
        perturbed({"format": harness.RESULTS_FORMAT}).map(as_text) | st.text(max_size=8),
        st.sampled_from(["k,stage,W,F_0", "k,stage,W,F_0,F_1", "k,stage,W", "k,W"]),
        st.lists(csv_rows, max_size=4),
    )
)
def test_read_results_raises_only_config_error(scratch, payload):
    try:
        _, ks, stages, search, fidelity = read_results(write(scratch, payload))
    except ConfigError:
        return
    assert len(ks) == len(stages) == len(search)
    if len(fidelity):
        assert fidelity.shape[1] == len(ks)
