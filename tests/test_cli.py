"""End-to-end tests for the ``eigenrl`` command line."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from eigenrl import harness
from eigenrl.cli import main
from eigenrl.environment import load_operator, save_operator


def write_config(tmp_path, name="cfg.json", **overrides):
    payload = {
        "dim": 2,
        "env_kind": "random",
        "env_seed": 7,
        "tau": 1.0,
        "r": 0.9,
        "nu": 2.0,
        "w1": 1.0,
        "w_cap": 1.0,
        "repetitions": 8,
        "seed": 99,
        "stopping": {"kind": "fixed-budget", "budgets": [60]},
        "resample_env_per_repetition": False,
        "fidelity_mode": "per-rep",
        "record_every": 20,
    }
    payload.update(overrides)
    payload = {key: value for key, value in payload.items() if value is not None}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestRun:
    def test_exit_code_and_summary_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert printed.startswith("final F = [")
        assert ", final W = " in printed
        # the summary echoes the stored curves
        _, _, _, search, fidelity = harness.read_results(out)
        want = ", ".join(f"{v:.6f}" for v in fidelity[:, -1])
        assert printed == f"final F = [{want}], final W = {search[-1]:.6f}"

    def test_default_output_name_is_config_stem(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, name="quick.json")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "quick.csv").exists()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_and_reproduces(self, tmp_path):
        cfg = write_config(tmp_path)
        base = tmp_path / "base.csv"
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["run", "--config", str(cfg), "--out", str(base)])
        main(["run", "--config", str(cfg), "--seed", "123", "--out", str(o1)])
        main(["run", "--config", str(cfg), "--seed", "123", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()
        assert o1.read_bytes() != base.read_bytes()

    def test_json_format_round_trips(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "res.json"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["metadata"]["config"]["seed"] == 99
        assert blob["ks"] == [0, 20, 40, 60]
        fidelity = np.asarray(blob["fidelity_curves"])
        assert fidelity.shape == (2, 4)
        assert np.all((fidelity >= 0.0) & (fidelity <= 1.0))

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, bogus=3)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_runaway_uncapped_search_range_runs_silently(self, tmp_path):
        """An uncapped w that overflows to inf is the bare update: no warnings."""
        cfg = write_config(
            tmp_path, dim=4, env_seed=3, w_cap=None, repetitions=1, seed=7,
            fidelity_mode="paper", record_every=1,
            stopping={"kind": "fixed-budget", "budgets": [5000, 1, 1]},
        )
        out, trace = tmp_path / "o.csv", tmp_path / "rep0.trace"
        proc = subprocess.run(
            [sys.executable, "-m", "eigenrl.cli", "run", "--config", str(cfg),
             "--out", str(out), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        _, _, _, search, _ = harness.read_results(out)
        assert np.isinf(search).any()  # the run did overflow

    def test_log_env_var_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRL_LOG", "DEBUG")
        cfg = write_config(tmp_path, repetitions=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


class TestPipeline:
    """gen-operator -> run -> trace -> replay -> verify, all through main()."""

    @pytest.fixture()
    def operator_path(self, tmp_path):
        path = tmp_path / "op.json"
        code = main(
            ["gen-operator", "--kind", "random", "--dim", "2",
             "--seed", "11", "--out", str(path)]
        )
        assert code == 0
        return path

    def test_full_chain(self, tmp_path, operator_path, capsys):
        cfg = write_config(
            tmp_path,
            env_kind="file",
            operator_file=str(operator_path),
            env_seed=None,
            repetitions=1,
            seed=5,
            stopping={"kind": "fixed-budget", "budgets": [400]},
            record_every=50,
        )
        trace = tmp_path / "rep0.trace"
        out = tmp_path / "res.csv"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        assert trace.exists()

        dmat = tmp_path / "learned.json"
        code = main(["replay", "--trace", str(trace), "--d-matrix", str(dmat)])
        assert code == 0
        assert "replay OK" in capsys.readouterr().out

        code = main(
            ["verify", "--operator", str(operator_path), "--d-matrix", str(dmat)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "diag residual = " in captured.out
        assert "F_0 = " in captured.out and "F_1 = " in captured.out

    def test_verify_rejects_unconverged_basis(self, tmp_path, capsys):
        op = tmp_path / "sx.json"
        assert main(["gen-operator", "--kind", "spin-x", "--out", str(op)]) == 0
        dmat = tmp_path / "identity.json"
        harness.save_basis(dmat, np.eye(2, dtype=complex))
        code = main(["verify", "--operator", str(op), "--d-matrix", str(dmat)])
        assert code == 1
        assert "exceeds tolerance" in capsys.readouterr().err

    def test_replay_flags_a_tampered_trace(self, tmp_path, operator_path, capsys):
        cfg = write_config(
            tmp_path,
            env_kind="file",
            operator_file=str(operator_path),
            env_seed=None,
            repetitions=1,
            stopping={"kind": "fixed-budget", "budgets": [80]},
        )
        trace = tmp_path / "rep0.trace"
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
              "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        for i, line in enumerate(lines):
            row = json.loads(line)
            if row.get("angles"):
                row["angles"]["phi_x"] += 0.25
                lines[i] = json.dumps(row)
                break
        else:
            pytest.fail("trace contained no basis update to tamper with")
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--trace", str(trace)]) == 1
        assert "DIVERGED" in capsys.readouterr().err

    def test_replay_rejects_a_truncated_trace(self, tmp_path, operator_path):
        cfg = write_config(
            tmp_path,
            env_kind="file",
            operator_file=str(operator_path),
            env_seed=None,
            repetitions=1,
            stopping={"kind": "fixed-budget", "budgets": [80]},
        )
        trace = tmp_path / "rep0.trace"
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
              "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1]) + "\n")  # drop the hash footer
        assert main(["replay", "--trace", str(trace)]) == 2

    def test_replay_missing_file(self, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "gone.trace")]) == 2


class TestGenOperator:
    def test_random_requires_dim(self, tmp_path):
        assert main(["gen-operator", "--out", str(tmp_path / "o.json")]) == 2

    def test_spin_x_rejects_other_dims(self, tmp_path):
        code = main(
            ["gen-operator", "--kind", "spin-x", "--dim", "3",
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_bell_file_loads_back(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        assert main(["gen-operator", "--kind", "bell", "--out", str(path)]) == 0
        assert "spectrum" in capsys.readouterr().out
        operator, tau = load_operator(path)
        assert operator.shape == (4, 4)
        assert tau == 1.0
        np.testing.assert_allclose(operator, operator.conj().T, atol=1e-15)


def run_args(tmp_path, **overrides):
    config = write_config(tmp_path, **overrides)
    return ["run", "--config", str(config), "--out", str(tmp_path / "o.csv")]


def verify_args(tmp_path, basis):
    operator = tmp_path / "sx.json"
    save_operator(str(operator), np.array([[0.0, 0.5], [0.5, 0.0]]), 1.0)
    dmat = tmp_path / "basis.json"
    harness.save_basis(str(dmat), basis)
    return ["verify", "--operator", str(operator), "--d-matrix", str(dmat)]


def text_tau_args(tmp_path):
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"dim": 2, "tau": "abc", "entries_re": [[1, 0], [0, -1]],
                                    "entries_im": [[0, 0], [0, 0]]}))
    return run_args(tmp_path, env_kind="file", operator_file=str(operator), env_seed=None)


def non_hermitian_operator(tmp_path):
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"dim": 2, "tau": 1.0, "entries_re": [[0, 1], [0, 0]],
                                    "entries_im": [[0, 0], [0, 0]]}))
    return str(operator)


def non_hermitian_verify_args(tmp_path):
    argv = verify_args(tmp_path, np.eye(2))
    argv[argv.index("--operator") + 1] = non_hermitian_operator(tmp_path)
    return argv


def gen_operator_args(tmp_path, *args):
    return ["gen-operator", "--kind", "random", *args, "--out", str(tmp_path / "o.json")]


def undecodable_operator_args(tmp_path):
    argv = verify_args(tmp_path, np.eye(2))
    (tmp_path / "sx.json").write_bytes(b"\x80\x81")
    return argv


MALFORMED = {
    "nan-nu": lambda tmp_path: run_args(tmp_path, nu=math.nan),
    "infinite-w1": lambda tmp_path: run_args(tmp_path, w1=math.inf),
    "text-operator-tau": text_tau_args,
    "dim-out-of-range": lambda tmp_path: run_args(
        tmp_path, dim=100, stopping={"kind": "threshold", "w_min": 0.01, "max_iterations": 10},
    ),
    "dim-wrong-for-kind": lambda tmp_path: run_args(
        tmp_path, dim=4, env_kind="spin-x",
        stopping={"kind": "fixed-budget", "budgets": [10, 10, 10]},
    ),
    "verify-dim-mismatch": lambda tmp_path: verify_args(tmp_path, np.eye(4)),
    "verify-non-unitary": lambda tmp_path: verify_args(tmp_path, np.zeros((2, 2))),
    "verify-undecodable-operator": undecodable_operator_args,
    "verify-non-hermitian-operator": non_hermitian_verify_args,
    "run-non-hermitian-operator": lambda tmp_path: run_args(
        tmp_path, env_kind="file", operator_file=non_hermitian_operator(tmp_path),
        env_seed=None,
    ),
    "gen-operator-negative-seed": lambda tmp_path: gen_operator_args(
        tmp_path, "--dim", "2", "--seed", "-1"),
    "gen-operator-dim-out-of-range": lambda tmp_path: gen_operator_args(
        tmp_path, "--dim", "100"),
    "gen-operator-nan-tau": lambda tmp_path: gen_operator_args(
        tmp_path, "--dim", "2", "--tau", "nan"),
    "verify-nan-tol": lambda tmp_path: [*verify_args(tmp_path, np.eye(2)), "--tol", "nan"],
    "verify-negative-tol": lambda tmp_path: [*verify_args(tmp_path, np.eye(2)), "--tol", "-1"],
    "verify-infinite-tol": lambda tmp_path: [*verify_args(tmp_path, np.eye(2)), "--tol", "inf"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_stderr_line(tmp_path, capsys, case):
    argv = MALFORMED[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_version_via_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "eigenrl.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("eigenrl ")


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
