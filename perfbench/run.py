"""eigenrl benchmark: end-to-end and per-layer metrics of ``eigenrl run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --golden write|check

Every workload runs as fresh single-process children ``eigenrl run`` with
the default ``--threads 1`` (see ``child.py``).  With ``--trace 0`` the
benchmark runs rounds of two set-up-only children and one full run for
about ``--seconds`` seconds, checks every output and reports medians of the
end-to-end metrics; wall times are rescaled to a nominal host speed with a
reference loop timed around each full run (see ``reference_s``).  With
``--trace 1`` it runs one untraced and one traced child (timing wrappers
from ``tracer.py`` around the public functions of cli, harness, protocol,
environment and linalg) and reports the per-layer split.  The last stdout line is the JSON result; the lines before it name
each metric with its unit, and a ``record`` line holds the machine details
and per-child figures, also appended to ``.bench_run/records.jsonl``.

Output check: the sha256 of each results CSV with the ``code_version`` key
removed from its metadata line must equal the golden value in
``golden.json`` on the workload's default seed, and must be identical
across the runs of one invocation on any seed.  ``fig3_dense`` also needs
``eigenrl replay`` of its trace to exit 0, and on the default seed the
README's final line on stdout.  ``--golden`` recomputes the golden hashes
of the nine bundled configs at full size and of the workloads; it is not
part of the timed runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
GOLDEN = HERE / "golden.json"
CHILD = HERE / "child.py"

#: a timed child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
#: the golden runs use full-size configs, fig6_random2q takes minutes
GOLDEN_TIMEOUT_S = 1800.0
#: set-up-only children before each full run of an untraced invocation
PROBES_PER_RUN = 2
#: full runs per untraced invocation even when ``--seconds`` is shorter
MIN_RUNS = 2
#: NumPy steps of the reference loop timed around each full run; the loop
#: also runs 90 times as many interpreter additions
REF_LOOPS = 20_000
#: seconds the reference loop takes at the nominal host speed (median on a
#: 2-core Intel Xeon at 2.1 GHz, Python 3.11.7, NumPy 2.4.6)
REF_NOMINAL_S = 0.25

FIG3_README_LINE = "final F = [0.991293, 0.991293], final W = 0.033358"

WORKLOADS = {
    "fig6_dim4": {
        "config": "configs/fig6_random2q.json",
        "repetitions": 16,
    },
    "fig3_dense": {
        "config": "configs/fig3_r09_nu2.json",
        "repetitions": None,
        "trace_file": True,
        "stdout": FIG3_README_LINE,
    },
    "resample_dim16": {
        "config": "perfbench/resample_dim16.json",
        "repetitions": None,
    },
}

# ---------------------------------------------------------------------------
# children


class Child:
    """Outcome of one child process: its report, rusage and timings."""

    def __init__(self, spawn: float, status: int, rusage, report: dict | None,
                 stdout: str, stderr: str) -> None:
        self.spawn = spawn
        self.exit = status
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.maxrss_mb = rusage.ru_maxrss / 1024.0  # Linux reports KiB
        self.report = report or {}
        self.stdout = stdout
        self.stderr = stderr
        #: REF_NOMINAL_S over the mean reference time around this child
        self.scale = 1.0

    @property
    def setup_s(self) -> float | None:
        done = self.report.get("setup_done")
        return None if done is None else done - self.spawn

    @property
    def wall_s(self) -> float | None:
        done = self.report.get("results_written")
        return None if done is None else done - self.spawn


def run_child(workdir: Path, tag: str, mode: str, cli_args: list[str],
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run child.py once and reap it with ``os.wait4`` for its own rusage."""
    report_path = workdir / f"{tag}.report.json"
    out_path = workdir / f"{tag}.stdout"
    err_path = workdir / f"{tag}.stderr"
    env = dict(os.environ)
    env.pop("QRL_LOG", None)
    env.pop("PYTHONPATH", None)
    # one BLAS thread: otherwise OpenBLAS starts a spinning worker per core at
    # import, and set-up time depends on whether another core is free
    env["OPENBLAS_NUM_THREADS"] = "1"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(SRC), mode, str(report_path), "--", *cli_args],
            cwd=workdir, env=env, stdout=out, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    return Child(spawn, proc.returncode, rusage, report,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


# ---------------------------------------------------------------------------
# output checks


def stripped_sha256(csv_path: Path) -> str:
    """sha256 of a results CSV with ``code_version`` dropped from its metadata."""
    text = csv_path.read_text(encoding="utf-8")
    first, sep, rest = text.partition("\n")
    if not first.startswith("# "):
        raise ValueError(f"{csv_path.name} has no metadata line")
    meta = json.loads(first[2:])
    meta.pop("code_version", None)
    payload = "# " + json.dumps(meta, sort_keys=True) + sep + rest
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def final_fidelity_min(csv_path: Path) -> float:
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    last = lines[-1].split(",")
    return min(float(v) for name, v in zip(header, last) if name.startswith("F_"))


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {"configs": {}, "workloads": {}}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check_child(child: Child, csv_path: Path, golden: str | None,
                expect_stdout: str | None) -> tuple[str | None, str | None]:
    """(stripped sha or None, reason for failure or None) of one full run."""
    if child.exit != 0:
        return None, f"exit {child.exit}: {child.stderr.strip()[-300:]}"
    if not str(child.report.get("eigenrl_file", "")).startswith(str(SRC)):
        return None, f"ran eigenrl from {child.report.get('eigenrl_file')}, not {SRC}"
    if child.wall_s is None or child.setup_s is None:
        return None, f"timing hooks missing: {child.report.get('unhooked')}"
    if not child.report.get("iterations"):
        return None, "no agent iterations counted"
    if not csv_path.is_file():
        return None, "results file missing"
    try:
        sha = stripped_sha256(csv_path)
    except ValueError as exc:
        return None, str(exc)
    if golden is not None and sha != golden:
        return sha, f"stripped sha256 {sha[:16]} != golden {golden[:16]}"
    if expect_stdout is not None and child.stdout.strip().splitlines()[-1:] != [expect_stdout]:
        return sha, f"stdout {child.stdout.strip()[-200:]!r} != {expect_stdout!r}"
    return sha, None


# ---------------------------------------------------------------------------
# workload plumbing


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        spec = WORKLOADS[name]
        self.name = name
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        source = ROOT / spec["config"]
        raw = json.loads(source.read_text(encoding="utf-8"))
        self.default_seed = raw["seed"]
        if spec["repetitions"] is None:
            self.config = source
        else:
            raw["repetitions"] = spec["repetitions"]
            self.config = workdir / f"{name}.json"
            self.config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
        golden = load_golden()
        if seed != self.default_seed:
            self.golden = None
        elif spec["repetitions"] is None and spec["config"] in golden["configs"]:
            self.golden = golden["configs"][spec["config"]]
        else:
            self.golden = golden["workloads"].get(name, "missing")
        self.expect_stdout = spec.get("stdout") if seed == self.default_seed else None

    def run_args(self, tag: str) -> list[str]:
        args = ["run", "--config", str(self.config), "--out", str(self.csv(tag)),
                "--seed", str(self.seed)]
        if self.spec.get("trace_file"):
            args += ["--trace", str(self.trace_file(tag))]
        return args

    def csv(self, tag: str) -> Path:
        return self.workdir / f"{tag}.csv"

    def trace_file(self, tag: str) -> Path:
        return self.workdir / f"{tag}.trace"


class Tally:
    """Attempted operations of one invocation and the reason each failed one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def add(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.fail(what, reason)

    def fail(self, what: str, reason: str) -> None:
        self.failures.setdefault(what, reason)


def reference_s() -> float:
    """Time of a fixed loop: the host's speed right now.

    About half of the time is interpreter arithmetic. The rest is small
    NumPy steps: a 4x4 complex matrix-vector product and a Born-weight
    normalisation. This is the same mix as an agent iteration, so the loop
    slows down with the host as the children do.
    """
    matrix = np.eye(4, dtype=complex) * (1 + 0.5j)
    state = np.ones(4, dtype=complex) / 2
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS * 90):
        acc += i * i
    for _ in range(REF_LOOPS):
        state = matrix @ state
        weights = state.real**2 + state.imag**2
        state = state / math.sqrt(float(weights.sum()))
    return time.perf_counter() - start


def full_run(wl: Workload, tally: Tally, tag: str, mode: str = "run"):
    """Run and check one full child; returns (child, stripped sha or None, tag)."""
    child = run_child(wl.workdir, tag, mode, wl.run_args(tag))
    sha, reason = check_child(child, wl.csv(tag), wl.golden, wl.expect_stdout)
    tally.add(tag, reason)
    return child, sha, tag


def cross_check(wl: Workload, tally: Tally, runs, mode: str = "run") -> Child | None:
    """Identical stripped CSVs and stdout across runs; replay for traces."""
    shas = {sha for _, sha, _ in runs if sha is not None}
    lines = {child.stdout.strip() for child, sha, _ in runs if sha is not None}
    if len(shas) > 1 or len(lines) > 1:
        for _, _, tag in runs:
            tally.fail(tag, f"runs disagree: {len(shas)} CSV hashes, {len(lines)} stdout lines")
    replay = None
    if wl.spec.get("trace_file") and runs:
        tag = runs[-1][2]
        replay = run_child(wl.workdir, f"{tag}-replay", mode,
                           ["replay", "--trace", str(wl.trace_file(tag))])
        reason = None if replay.exit == 0 else f"exit {replay.exit}: {replay.stderr.strip()[-300:]}"
        tally.add(f"{tag}-replay", reason)
    return replay


# ---------------------------------------------------------------------------
# the two kinds of invocation


def timed(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, list[Child], dict]:
    """Set-up probes and full runs, alternating, for about ``seconds``.

    Returns the end-to-end metrics, every child, and the wall-time medians
    before rescaling to the nominal speed.
    """
    probes, runs = [], []
    start = time.monotonic()
    while True:
        for _ in range(PROBES_PER_RUN):
            tag = f"setup{len(probes)}"
            probe = run_child(wl.workdir, tag, "setup",
                              ["run", "--config", str(wl.config), "--seed", str(wl.seed)])
            ok = probe.exit == 0 and probe.setup_s is not None
            tally.add(tag, None if ok else f"exit {probe.exit}: {probe.stderr.strip()[-300:]}")
            probes.append(probe)
        before = reference_s()
        runs.append(full_run(wl, tally, f"run{len(runs)}"))
        runs[-1][0].scale = REF_NOMINAL_S / ((before + reference_s()) / 2)
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    cross_check(wl, tally, runs)

    children = [c for c, _, _ in runs] + probes
    good_runs = [(child, tag) for child, sha, tag in runs if sha is not None and child.wall_s is not None]
    if not good_runs:
        return {}, children, {}
    good = [child for child, _ in good_runs]
    iterations = good[0].report["iterations"]
    raw_wall = statistics.median(c.wall_s for c in good)
    wall = statistics.median(c.wall_s * c.scale for c in good)
    metrics = {
        "wall_s": wall,
        "us_per_iter": wall / iterations * 1e6,
        "setup_s": statistics.median(c.setup_s for c in probes + good if c.setup_s is not None),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in good),
        "final_fidelity_min": final_fidelity_min(wl.csv(good_runs[0][1])),
    }
    unscaled = {"wall_s": raw_wall, "us_per_iter": raw_wall / iterations * 1e6}
    return metrics, children, {"unscaled": unscaled}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def traced(wl: Workload, tally: Tally) -> tuple[dict, list[Child], dict]:
    plain_run = full_run(wl, tally, "plain")
    traced_run = full_run(wl, tally, "traced", mode="trace")
    replay = cross_check(wl, tally, [plain_run, traced_run], mode="trace")
    plain, child = plain_run[0], traced_run[0]
    children = [plain, child] + ([replay] if replay else [])
    if "trace" not in child.report or plain.wall_s is None or child.wall_s is None:
        return {}, children, {}
    doc = json.loads(Path(child.report["trace"]).read_text(encoding="utf-8"))
    stats = doc["stats"]
    if replay is not None and "trace" in replay.report:
        replayed = json.loads(Path(replay.report["trace"]).read_text(encoding="utf-8"))
        for name in ("protocol.read_trace", "protocol.replay_basis"):
            if name in replayed["stats"]:
                stats[name] = replayed["stats"][name]

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    counts = doc["counts"]
    iterations = sum(counts.values())
    total = get("cli.main", "s")
    csv_bytes = wl.csv("traced").stat().st_size if wl.csv("traced").is_file() else 0
    builds = get("harness.build_environment", "calls")
    values = {
        "iterations": child.report["iterations"],
        "traced_wall_s": child.wall_s,
        "trace_overhead_frac": child.wall_s / plain.wall_s - 1.0,
        "protocol.reward": counts["reward"],
        "protocol.punish": counts["punish"],
        "protocol.neutral": counts["neutral"],
        "protocol.punish_ratio": counts["punish"] / iterations if iterations else 0.0,
        "linalg.eig_hermitian.per_env": get("linalg.eig_hermitian", "calls") / builds if builds else 0.0,
        "harness.write_results.bytes": csv_bytes,
        "share.agent_loop": (get("protocol.run_stages", "s") - get("harness.observer", "s")) / total
        if total else 0.0,
        "share.observer_accumulation": (get("harness.observer", "self_s")
                                        + get("harness.run_experiment", "self_s")) / total
        if total else 0.0,
        "share.eig_hermitian": get("linalg.eig_hermitian", "s") / total if total else 0.0,
        "missing_names": len(doc["missing"]),
    }
    metrics = {}
    for name in metric_units("per_layer"):
        if name in values:
            metrics[name] = values[name]
        else:
            layer, _, field = name.rpartition(".")
            metrics[name] = get(layer, field)
    consistency = {
        "interact_calls_equal_iterations":
            get("environment.interact", "calls") == child.report["iterations"] == iterations,
        "rotation_blocks_equal_punishes": get("linalg.rotation_block", "calls") == counts["punish"],
        "missing": doc["missing"],
    }
    return metrics, children, {"consistency": consistency}


# ---------------------------------------------------------------------------
# golden hashes


def golden(action: str) -> int:
    workdir = WORK / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    found = {"configs": {}, "workloads": {}}
    jobs = [("configs", str(p.relative_to(ROOT)), None) for p in sorted((ROOT / "configs").glob("*.json"))]
    # workloads that are not a bundled config at full size need hashes of their own
    jobs += [("workloads", name, name) for name, spec in WORKLOADS.items()
             if spec["repetitions"] is not None or not spec["config"].startswith("configs/")]
    for group, key, workload in jobs:
        tag = key.replace("/", "_")
        if workload is None:
            args = ["run", "--config", str(ROOT / key), "--out", str(workdir / f"{tag}.csv")]
            csv = workdir / f"{tag}.csv"
        else:
            raw = json.loads((ROOT / WORKLOADS[workload]["config"]).read_text(encoding="utf-8"))
            wl = Workload(workload, raw["seed"], workdir)
            args, csv = wl.run_args(tag), wl.csv(tag)
        child = run_child(workdir, tag, "run", args, GOLDEN_TIMEOUT_S)
        if child.exit != 0:
            print(f"{key}: exit {child.exit}: {child.stderr.strip()}", file=sys.stderr)
            return 1
        found[group][key] = stripped_sha256(csv)
        print(f"{key}: {found[group][key]}  ({child.wall_s:.1f} s)", flush=True)
    if action == "write":
        GOLDEN.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    expected = load_golden()
    bad = [f"{g}/{k}" for g in found for k in found[g] if expected[g].get(k) != found[g][k]]
    bad += [f"{g}/{k} (not run)" for g in expected for k in expected[g] if k not in found[g]]
    for item in bad:
        print(f"golden mismatch: {item}", file=sys.stderr)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# entry point


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", choices=("write", "check"))
    args = parser.parse_args(argv)

    if not (SRC / "eigenrl" / "cli.py").is_file():
        print(f"error: no eigenrl sources under {SRC}", file=sys.stderr)
        return 2
    if args.golden:
        return golden(args.golden)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (ROOT / WORKLOADS[args.workload]["config"]).is_file():
        print(f"error: missing config {WORKLOADS[args.workload]['config']}", file=sys.stderr)
        return 2

    loadavg = os.getloadavg()[0]
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, workdir)
    tally = Tally()
    if args.trace:
        metrics, children, extra = traced(wl, tally)
    else:
        metrics, children, extra = timed(wl, args.seconds, tally)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    failures = [f"{what}: {reason}" for what, reason in tally.failures.items()]
    if not metrics:
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print("error: no run produced metrics", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": loadavg,
        "failed_frac": len(failures) / tally.attempted,
        "failures": failures,
        "children": [
            {"mode": c.report.get("mode"), "exit": c.exit, "wall_s": c.wall_s,
             "setup_s": c.setup_s, "scale": c.scale, "cpu_s": c.cpu_s,
             "maxrss_mb": c.maxrss_mb, "iterations": c.report.get("iterations")}
            for c in children
        ],
        **extra,
        "metrics": metrics,
    }
    with open(WORK / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    for name, value in extra.get("unscaled", {}).items():
        print(f"{'unscaled ' + name:<40} {value:>16.6g} {units[name]}")
    print("record " + json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
