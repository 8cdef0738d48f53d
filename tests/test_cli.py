"""End-to-end tests for the ``eigenrl`` command line."""
import ast
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eigenrl import errors, harness, linalg, protocol
from eigenrl.cli import main
from eigenrl.environment import load_operator, save_operator
from eigenrl.errors import ConfigError, EigenrlError
from results import read_results

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        _, _, _, search, fidelity = read_results(out)
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
        _, _, _, search, _ = read_results(out)
        assert np.isinf(search).any()  # the run did overflow

    @pytest.mark.parametrize("bundled", [True, False], ids=["fig3_r09_nu2", "resampled"])
    def test_trace_comes_from_the_one_run(self, tmp_path, monkeypatch, capsys, bundled):
        """``run --trace`` runs the ensemble once and writes the trace that
        a run of repetition 0 alone writes; both replay."""
        if bundled:
            cfg = CONFIG_DIR / "fig3_r09_nu2.json"
        else:  # repetition 0 stops before the longest repetition
            cfg = write_config(
                tmp_path, dim=3, seed=5, resample_env_per_repetition=True,
                stopping={"kind": "threshold", "w_min": 0.05, "max_iterations": 300},
            )
        runs = []

        def counting(*args, **kwargs):
            runs.append(args)
            return protocol.run_stages(*args, **kwargs)

        monkeypatch.setattr(harness, "run_stages", counting)
        out, trace = tmp_path / "o.csv", tmp_path / "run.trace"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--trace", str(trace)]
        assert main(argv) == 0
        assert len(runs) == 1
        alone = tmp_path / "alone.trace"
        config = replace(harness.load_config(str(cfg)), repetitions=1)
        harness.run_experiment(config, trace=True).trace.write(str(alone))
        assert trace.read_bytes() == alone.read_bytes()
        iterations = len(protocol.read_trace(str(trace))[1].stage)
        if not bundled:
            metadata = read_results(out)[0]
            assert 0 < iterations < metadata["longest_run"]
        capsys.readouterr()
        for path in (trace, alone):
            assert main(["replay", "--trace", str(path)]) == 0
            assert capsys.readouterr().out.startswith(f"replay OK: {iterations} ")

    def test_log_env_var_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRL_LOG", "DEBUG")
        cfg = write_config(tmp_path, repetitions=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


    def test_info_log_counts_threshold_stages_that_hit_the_cap(self, tmp_path):
        """At QRL_LOG=INFO a threshold run ends by logging, per stage, how many
        repetitions met w_min and how many the cap stopped; its results file
        is the one a quiet run writes."""
        rule = {"kind": "threshold", "w_min": 0.5, "max_iterations": 8}
        cfg = write_config(tmp_path, dim=3, repetitions=20, stopping=rule, record_every=1)
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = {}
        for level in ("WARNING", "INFO"):
            out = tmp_path / f"{level}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "eigenrl.cli", "run", "--config", str(cfg),
                 "--out", str(out)],
                env={**os.environ, "QRL_LOG": level, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            runs[level] = out.read_bytes(), proc.stderr
        assert runs["INFO"][0] == runs["WARNING"][0]
        assert runs["WARNING"][1] == ""
        stops = re.findall(
            r"stage (\d+): (\d+) repetitions reached w_min, (\d+) hit max_iterations",
            runs["INFO"][1],
        )
        assert [t for t, _, _ in stops] == ["0", "1"]
        assert all(int(met) + int(capped) == 20 for _, met, capped in stops)
        assert all(int(capped) > 0 for _, _, capped in stops)


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

    @pytest.mark.parametrize("name", ["fig7_bell", "fig6_random2q", "fig3_r09_nu2"])
    def test_replay_verify_and_the_results_file_agree(self, tmp_path, capsys, name):
        """``verify`` of the replayed basis prints, for each column, the best
        overlap that the results file holds for repetition 0, and computes
        it with the fold's own overlaps, bit for bit."""
        cfg = CONFIG_DIR / f"{name}.json"
        out, trace, dmat = tmp_path / "o.json", tmp_path / "rep0.trace", tmp_path / "d.json"
        argv = ["run", "--config", str(cfg), "--format", "json", "--out", str(out),
                "--trace", str(trace)]
        assert main(argv) == 0
        assert main(["replay", "--trace", str(trace), "--d-matrix", str(dmat)]) == 0
        config = harness.load_config(str(cfg))
        operator = tmp_path / "op.json"
        save_operator(str(operator), harness.build_environment(config).operators[0], config.tau)
        capsys.readouterr()
        # a relative residual never exceeds 1, so --tol 1 passes every basis
        argv = ["verify", "--operator", str(operator), "--d-matrix", str(dmat), "--tol", "1"]
        assert main(argv) == 0
        printed = re.findall(r"^F_(\d+) = (\S+)$", capsys.readouterr().out, re.MULTILINE)
        final = np.array(json.loads(out.read_text())["per_repetition_final"][0])
        assert printed == [(str(j), f"{v:.9f}") for j, v in enumerate(final.max(axis=0))]
        vconj = linalg.eig_hermitian(load_operator(str(operator))[0][None]).eigenvectors.conj()
        basis = harness.load_basis(str(dmat))
        got = linalg.overlaps(vconj, np.arange(1), basis[None])[0]
        assert got.tobytes() == final.tobytes()

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


def text_entry_operator_args(tmp_path):
    argv = verify_args(tmp_path, np.eye(2))
    (tmp_path / "sx.json").write_text(json.dumps({
        "dim": 2, "tau": 1.0, "entries_re": [["0", "0.5"], ["0.5", "0"]],
        "entries_im": [[0, 0], [0, 0]],
    }))
    return argv


def basis_doc_args(tmp_path, **changes):
    """verify argv for an identity basis file with ``changes`` to its keys."""
    argv = verify_args(tmp_path, np.eye(2))
    doc = {"dim": 2, "entries_re": [[1.0, 0.0], [0.0, 1.0]],
           "entries_im": [[0.0, 0.0], [0.0, 0.0]], **changes}
    (tmp_path / "basis.json").write_text(json.dumps(doc))
    return argv


def replay_args(tmp_path, line=None, **changes):
    """replay argv for a one-record trace at dim 2 that replays OK, with
    ``changes`` to its line ``line`` (1 the record, 2 the footer)."""
    punish = protocol.Decisions(stage=[0], outcome=[1], w_after=[1.0],
                                angles=[[0.1, -0.2, 0.3]])
    path = tmp_path / "one.trace"
    protocol.write_trace(str(path), {"dim": 2}, punish, protocol.replay_basis(2, punish))
    lines = path.read_text().splitlines()
    if line is not None:
        lines[line] = json.dumps({**json.loads(lines[line]), **changes})
    path.write_text("\n".join(lines) + "\n")
    return ["replay", "--trace", str(path)]


def test_the_malformed_trace_starts_out_valid(tmp_path, capsys):
    assert main(replay_args(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("replay OK: 1 iterations")


def no_records_args(tmp_path):
    """replay argv for a trace of a header and the identity's hash alone."""
    path = tmp_path / "empty.trace"
    protocol.write_trace(str(path), {"dim": 2}, protocol.Decisions(),
                         np.eye(2, dtype=np.complex128))
    return ["replay", "--trace", str(path)]


def run_path_args(tmp_path, out, trace=None):
    """run argv whose --out (and --trace, if given) are ``out`` and ``trace``,
    with "config" standing for the --config path."""
    argv = run_args(tmp_path)
    config = argv[2]
    argv[4] = config if out == "config" else str(tmp_path / out)
    if trace is not None:
        argv += ["--trace", config if trace == "config" else str(tmp_path / trace)]
    return argv


def linked_trace_args(tmp_path):
    (tmp_path / "link").symlink_to(tmp_path / "o.csv")
    return run_path_args(tmp_path, "o.csv", "link")


def file_tau_mismatch_args(tmp_path):
    """A file run whose config ``tau``, 1.0, is not the operator file's."""
    operator = tmp_path / "op.json"
    save_operator(str(operator), np.diag([-1.0, 1.0]), 0.5)
    return run_args(tmp_path, env_kind="file", operator_file=str(operator), env_seed=None)


def operator_file_out_args(tmp_path):
    operator = tmp_path / "op.json"
    save_operator(str(operator), np.diag([-1.0, 1.0]), 1.0)
    argv = run_args(tmp_path, env_kind="file", operator_file=str(operator), env_seed=None)
    argv[4] = str(operator)
    return argv


def replay_onto_trace_args(tmp_path):
    argv = replay_args(tmp_path)
    return [*argv, "--d-matrix", str(tmp_path / "." / "one.trace")]


def huge_operator(tmp_path, entry, dim=2):
    """An operator file of a Hermitian matrix whose every real part, and
    every imaginary part off the diagonal, has magnitude ``entry``."""
    signs = np.where(np.add.outer(np.arange(dim), np.arange(dim)) % 3 == 0, -1.0, 1.0)
    real = entry * signs
    imag = entry * np.triu(signs, 1)
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"dim": dim, "tau": 1.0, "entries_re": real.tolist(),
                                    "entries_im": (imag - imag.T).tolist()}))
    return str(operator)


def huge_verify_args(tmp_path, entry, dim=2):
    argv = verify_args(tmp_path, np.eye(dim))
    argv[argv.index("--operator") + 1] = huge_operator(tmp_path, entry, dim)
    return argv


def huge_run_args(tmp_path, entry, dim=2):
    return run_args(tmp_path, dim=dim, env_kind="file", env_seed=None,
                    operator_file=huge_operator(tmp_path, entry, dim), repetitions=2,
                    record_every=1, stopping={"kind": "fixed-budget", "budgets": [3] * (dim - 1)})


def bundled_config_args(tmp_path, name, **changes):
    """run argv for the bundled config ``name`` with ``changes`` to its keys."""
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    return run_args(tmp_path, **{**raw, **changes})


def deeply_nested_config_args(tmp_path):
    argv = run_args(tmp_path)
    Path(argv[2]).write_text("[" * 100_000)
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
    # the seed is checked for every kind, though only random draws with it
    "gen-operator-bell-negative-seed": lambda tmp_path: [
        "gen-operator", "--kind", "bell", "--seed", "-1", "--out", str(tmp_path / "o.json")],
    "gen-operator-spin-x-negative-seed": lambda tmp_path: [
        "gen-operator", "--kind", "spin-x", "--seed", "-1", "--out", str(tmp_path / "o.json")],
    "gen-operator-dim-out-of-range": lambda tmp_path: gen_operator_args(
        tmp_path, "--dim", "100"),
    "gen-operator-nan-tau": lambda tmp_path: gen_operator_args(
        tmp_path, "--dim", "2", "--tau", "nan"),
    "verify-nan-tol": lambda tmp_path: [*verify_args(tmp_path, np.eye(2)), "--tol", "nan"],
    "verify-negative-tol": lambda tmp_path: [*verify_args(tmp_path, np.eye(2)), "--tol", "-1"],
    "verify-infinite-tol": lambda tmp_path: [*verify_args(tmp_path, np.eye(2)), "--tol", "inf"],
    "verify-text-operator-entry": text_entry_operator_args,
    "verify-bool-basis-entry": lambda tmp_path: basis_doc_args(
        tmp_path, entries_re=[[True, False], [False, True]]),
    "verify-ragged-basis": lambda tmp_path: basis_doc_args(
        tmp_path, entries_re=[[1.0, 0.0], [0.0]]),
    "verify-float-basis-dim": lambda tmp_path: basis_doc_args(tmp_path, dim=2.0),
    "replay-number-footer": lambda tmp_path: replay_args(tmp_path, 2, final_sha256=123),
    "replay-null-footer": lambda tmp_path: replay_args(tmp_path, 2, final_sha256=None),
    "replay-fractional-k": lambda tmp_path: replay_args(tmp_path, 1, k=1.7),
    "replay-bool-k": lambda tmp_path: replay_args(tmp_path, 1, k=True),
    "replay-bogus-class": lambda tmp_path: replay_args(tmp_path, 1, **{"class": "bogus"}),
    "replay-w-after-nan": lambda tmp_path: replay_args(tmp_path, 1, w_after=math.nan),
    "replay-k-from-0": lambda tmp_path: replay_args(tmp_path, 1, k=0),
    "replay-k-from-7": lambda tmp_path: replay_args(tmp_path, 1, k=7),
    "replay-k-from-10000": lambda tmp_path: replay_args(tmp_path, 1, k=10000),
    "replay-no-records": no_records_args,
    "deeply-nested-config": deeply_nested_config_args,
    "run-out-is-config": lambda tmp_path: run_path_args(tmp_path, "config"),
    "run-trace-is-config": lambda tmp_path: run_path_args(tmp_path, "o.csv", "config"),
    "run-trace-is-out": lambda tmp_path: run_path_args(tmp_path, "o.csv", "o.csv"),
    "run-trace-links-to-out": linked_trace_args,
    "run-out-is-operator-file": operator_file_out_args,
    "run-config-tau-differs-from-the-file": file_tau_mismatch_args,
    "replay-d-matrix-is-trace": replay_onto_trace_args,
    "run-out-dir-missing": lambda tmp_path: run_path_args(tmp_path, "nodir/o.csv"),
    "run-trace-dir-missing": lambda tmp_path: run_path_args(tmp_path, "o.csv", "nodir/t.trace"),
    "run-out-is-a-directory": lambda tmp_path: run_path_args(tmp_path, "."),
    "run-trace-is-a-directory": lambda tmp_path: run_path_args(tmp_path, "o.csv", "."),
    "replay-d-matrix-dir-missing": lambda tmp_path: [
        *replay_args(tmp_path), "--d-matrix", str(tmp_path / "nodir" / "d.json")],
    "gen-operator-out-dir-missing": lambda tmp_path: [
        "gen-operator", "--kind", "bell", "--out", str(tmp_path / "nodir" / "op.json")],
    "gen-operator-out-is-a-directory": lambda tmp_path: [
        "gen-operator", "--kind", "bell", "--out", str(tmp_path)],
    # integers the parser once passed and the run then crashed on
    "repetitions-beyond-the-member-limit": lambda tmp_path: run_args(
        tmp_path, repetitions=5_000_000_000),
    "max-iterations-beyond-int64": lambda tmp_path: run_args(
        tmp_path, stopping={"kind": "threshold", "w_min": 0.01, "max_iterations": 2**63}),
    "budget-beyond-int64": lambda tmp_path: run_args(
        tmp_path, stopping={"kind": "fixed-budget", "budgets": [2**63]}),
    "record-every-beyond-int64": lambda tmp_path: run_args(tmp_path, record_every=2**70),
    # numbers the parsers once passed and the arithmetic then overflowed on
    "verify-operator-entries-near-the-float-maximum": lambda tmp_path: huge_verify_args(
        tmp_path, 1e308),
    "run-operator-entries-near-the-float-maximum": lambda tmp_path: huge_run_args(tmp_path, 1e308),
    "verify-operator-entries-beyond-the-entry-bound": lambda tmp_path: huge_verify_args(
        tmp_path, 1e200),
    "run-operator-entries-beyond-the-entry-bound": lambda tmp_path: huge_run_args(tmp_path, 1e200),
    "single-qubit-eigenvalue-beyond-the-entry-bound": lambda tmp_path: run_args(
        tmp_path, env_kind="single-qubit-spec", env_seed=None,
        single_qubit={"alpha": 1.0, "beta": 0.5, "lambda0": 1e308, "lambda1": 0.5}),
    "bell-tau-overflows-the-phase": lambda tmp_path: bundled_config_args(
        tmp_path, "fig7_bell.json", tau=1e308),
    "gen-operator-tau-overflows-the-phase": lambda tmp_path: [
        "gen-operator", "--kind", "bell", "--tau", "1e308", "--out", str(tmp_path / "o.json")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_stderr_line(tmp_path, capsys, case):
    argv = MALFORMED[case](tmp_path)
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    # nothing was written: every input is as it was and no output appeared
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


def test_an_entry_beyond_the_bound_is_named_before_the_hermitian_defect(tmp_path, capsys):
    """An operator entry beyond ``MAX_ENTRY`` is reported as such, not as
    the Hermitian defect its rounding leaves."""
    for case in ("verify-operator-entries-near-the-float-maximum",
                 "single-qubit-eigenvalue-beyond-the-entry-bound"):
        assert main(MALFORMED[case](tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"beyond {linalg.MAX_ENTRY:.0e}" in err and "Hermitian" not in err, err


@pytest.mark.parametrize("command", ["verify", "run"])
def test_entries_at_the_bound_stay_finite_at_the_largest_dim(tmp_path, capsys, command):
    """At ``MAX_DIM`` an operator whose every entry part is ``MAX_ENTRY``
    runs and verifies without an overflow: the suite makes a warning an
    error, and the printed numbers are finite."""
    make = huge_verify_args if command == "verify" else huge_run_args
    argv = make(tmp_path, linalg.MAX_ENTRY, linalg.MAX_DIM)
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert out and "nan" not in out and "inf" not in out, out


def test_every_raise_is_a_config_error_or_an_eigenrl_error():
    """One class per exit code: the package raises ``ConfigError`` (exit 2)
    or ``EigenrlError`` (exit 3) and no other class, a bare re-raise
    aside, and ``errors`` defines those two and no other exception."""
    package = Path(errors.__file__).parent
    raised = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                raised.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    assert set(raised) == {"ConfigError", "EigenrlError"}, raised
    defined = [name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)]
    assert defined == ["EigenrlError", "ConfigError"]
    assert issubclass(ConfigError, EigenrlError)


def test_every_file_written_is_opened_with_newline_empty():
    """Each ``open`` for writing in the package passes ``newline=""``, so a
    results, basis, operator or trace file has the same bytes on every
    platform: without it Python writes each ``\\n`` as ``os.linesep``."""
    package = Path(errors.__file__).parent
    writes, untranslated = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            if mode is None or not set(ast.literal_eval(mode)) & set("wax+"):
                continue
            writes.append(f"{path.name}:{node.lineno}")
            newline = keywords.get("newline")
            if newline is None or ast.literal_eval(newline) != "":
                untranslated.append(writes[-1])
    assert len(writes) >= 5 and not untranslated, untranslated


#: patches that break unitarity: rotation blocks scaled by 2, and fold
#: features that are NaN, which fail the guard's comparison as well
BROKEN_UNITARITY = (
    "blocks = linalg.rotation_blocks\n"
    "linalg.rotation_blocks = lambda phi: 2.0 * blocks(phi)\n",
    "overlaps = linalg.overlaps\n"
    "def poisoned(*args):\n"
    "    amp = overlaps(*args)\n"
    "    amp[..., 0, 0] = float('nan')\n"
    "    return amp\n"
    "linalg.overlaps = poisoned\n",
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_lost_unitarity_exits_3_with_one_stderr_line(tmp_path, flags):
    """The fidelity guard is an explicit raise that the command line reports
    as a runtime failure, not an assert that ``python -O`` strips."""
    # tau = pi turns the probe |0> into |1>: the one iteration punishes
    cfg = write_config(tmp_path, env_kind="spin-x", tau=math.pi, repetitions=1,
                       stopping={"kind": "fixed-budget", "budgets": [1]}, record_every=1)
    src = Path(__file__).resolve().parents[1] / "src"
    for patch in BROKEN_UNITARITY:
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from eigenrl import linalg\n"
            "from eigenrl.cli import main\n"
            + patch +
            f"sys.exit(main(['run', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'o.csv')!r}]))\n"
        )
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: fidelity left [0, 1]: unitarity was lost\n"
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("message", ["", "Unable to allocate 64.0 GiB for an array with "
                                     "shape (1000000, 64, 64) and data type complex128"])
def test_running_out_of_memory_exits_3_with_one_stderr_line(tmp_path, capsys, monkeypatch,
                                                           message):
    """A config within the documented ranges may still not fit in memory:
    that is a runtime failure, reported on one line with NumPy's message
    when there is one.  The allocation failure is simulated, never made."""
    def exhausted(config, trace=False):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(harness, "run_experiment", exhausted)
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: ran out of memory" + (f": {message}" if message else "") + "\n"
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()


def never_close_member_0s_stage_0(monkeypatch):
    """Patch the engine so that member 0 never closes stage 0."""
    converged = protocol.EnsembleState.stage_converged

    def skipped(self, sel):
        done = converged(self, sel)
        if self.stage[0] == 0:
            done &= np.arange(len(self.w))[sel] != 0
        return done

    monkeypatch.setattr(protocol.EnsembleState, "stage_converged", skipped)


def test_a_skipped_stage_close_exits_3_with_one_stderr_line(tmp_path, capsys, monkeypatch):
    """A member left running at its stage's end is an engine fault: the
    round that finds no iteration left to run names it, in process and from
    the command line, where it once died in NumPy's argmax with exit 1."""
    raw = json.loads((CONFIG_DIR / "fig6_random2q.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**raw, "repetitions": 16}))
    never_close_member_0s_stage_0(monkeypatch)
    message = "member 0 reached the end of its stage 0, call 4000, and the stage did not close"
    with pytest.raises(EigenrlError, match=f"^{message}$") as exc:
        harness.run_experiment(harness.load_config(str(cfg)))
    assert exc.type is EigenrlError  # a runtime failure, not bad input
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()


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


def test_the_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Every ``eigenrl`` command of the README's ``sh`` blocks exits 0 in a
    fresh directory, and prints each ``# ->`` line that follows it."""
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    lines = [line.strip() for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
             for line in block.splitlines()]
    (tmp_path / "configs").symlink_to(CONFIG_DIR)
    monkeypatch.chdir(tmp_path)
    commands, printed = [], []
    for line in lines:
        if line.startswith("eigenrl "):
            argv = line.split()[1:]
            capsys.readouterr()
            assert main(argv) == 0, line
            commands.append(argv[0])
            printed = capsys.readouterr().out.splitlines()
        elif line.startswith("# -> "):
            assert line[len("# -> "):] in printed, line
    assert commands == ["run", "replay", "gen-operator", "verify"]
