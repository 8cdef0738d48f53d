"""Perf trajectory: today's benchmark run on older commits, one file each.

Usage (from the repository root):

    python3 scripts/trajectory.py PR=REV [PR=REV ...]

``REV`` is any git revision, or ``.`` for the working tree as it stands
(tracked files and new ones git does not ignore).  Each tree is extracted
into a temporary directory, a revision with ``git archive``, and the
current ``perfbench/`` and ``BENCHMARK.json`` are laid over it, so every
tree runs the same benchmark code against its own ``src/``.

In each of ``ROUNDS`` rounds, and round-robin across the trees so that
drift of the host falls on all of them alike, it runs the three benchmark
workloads with ``perfbench/run.py --workload NAME --seed 7 --seconds 2``,
at least two full runs each, and the full-size ``configs/fig6_random2q.json``
once from the CLI, through ``perfbench/child.py`` as ``run.py`` runs its
children.  The workloads' figures come from each ``run.py`` invocation's
``record`` line, one per full-run child, so nothing in ``perfbench/``
changes:

- ``wall_s``: the child's wall time, rescaled by its reference loop as
  ``run.py`` rescales it;
- ``run_s``: the same less the child's ``setup_s``, rescaled too, which
  leaves out the interpreter, the imports and the config;
- ``us_per_iter``: the rescaled ``wall_s`` per iteration;
- ``setup_s``: unscaled, over the set-up probes and the full runs;
- ``peak_rss_mb``: the full runs' maximum resident set.

The full-size run takes a reference loop before and after it for its
scale, and its CSV is checked against the golden hash.  A tree whose
full-size run passes ``FULL_LIMIT_S``, as the first commit's per-agent
engine does (about 140 s), is killed there and not run again; its file names it under
``cut``, which is no failure.

It writes ``bench/BENCH_<PR>.json`` for each tree: the commit, whether the
working tree was measured on top of it, the Python, NumPy and CPU, a session
id that every file of one invocation shares, whether every output check
passed (``correct``, with the ``failures``), ``final_fidelity_min`` per
workload, and per workload the median and quartiles of the five figures
above.  Wall times from different sessions do not compare; only files of
one session do.

No tree back to the first commit needs a shim: each runs today's benchmark
unchanged.
A tree whose run fails is recorded with its failures, not patched.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench"
WORKLOADS = ("fig6_dim4", "fig3_dense", "resample_dim16")
FULL = "fig6_random2q"
FULL_CONFIG = "configs/fig6_random2q.json"
SEED = 7
#: rounds over every tree, and ``run.py --seconds`` per workload invocation
ROUNDS = 5
SECONDS = 2.0
#: a full-size run still going after this long is killed and not run again
FULL_LIMIT_S = 30.0
FIGURES = ("wall_s", "run_s", "us_per_iter", "setup_s", "peak_rss_mb")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, into: Path) -> tuple[str, bool]:
    """Lay ``rev``'s tree, or the working tree for ``.``, into ``into``, then
    today's benchmark over it; returns the commit and whether it was the
    working tree."""
    if rev == ".":
        names = git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0")
        for name in filter(None, names):
            if (ROOT / name).is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, into / name)
        commit, worktree = git("rev-parse", "HEAD").decode().strip(), True
    else:
        commit, worktree = git("rev-parse", f"{rev}^{{commit}}").decode().strip(), False
        subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", commit), check=True)
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    return commit, worktree


def bench_module(tree: Path, name: str):
    """The tree's ``perfbench/run.py`` as a module, whose children run the
    tree's ``src/``."""
    spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload(tree: Path, name: str) -> tuple[list[dict], dict]:
    """One ``run.py`` invocation: its per-child rows and its verdict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
         "--seconds", str(SECONDS)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), None)
    if proc.returncode or record is None:
        return [], {"correct": False, "failures": [proc.stderr.strip()[-300:]]}
    verdict = json.loads(lines[-1])
    rows = []
    for child in record["children"]:
        row = {"setup_s": child["setup_s"]}
        if child["mode"] == "run" and child["wall_s"] is not None:
            wall = child["wall_s"] * child["scale"]
            row.update(wall_s=wall, run_s=(child["wall_s"] - child["setup_s"]) * child["scale"],
                       us_per_iter=wall / child["iterations"] * 1e6,
                       peak_rss_mb=child["maxrss_mb"])
        rows.append(row)
    return rows, {"correct": verdict["correct"], "failures": record["failures"],
                  "final_fidelity_min": record["metrics"]["final_fidelity_min"]}


def full_size(tree: Path, module) -> tuple[list[dict], dict]:
    """One full-size run from the CLI, checked against the golden hash."""
    workdir = tree / ".bench_run" / "trajectory"
    workdir.mkdir(parents=True, exist_ok=True)
    csv = workdir / f"{FULL}.csv"
    csv.unlink(missing_ok=True)
    before = module.reference_s()
    child = module.run_child(workdir, FULL, "run",
                             ["run", "--config", str(tree / FULL_CONFIG), "--out", str(csv)],
                             timeout=FULL_LIMIT_S)
    scale = module.REF_NOMINAL_S / ((before + module.reference_s()) / 2)
    if child.exit < 0 and child.report.get("results_written") is None:
        return [], {"correct": True, "failures": [],
                    "cut": f"killed at the {FULL_LIMIT_S} s limit"}
    _, reason = module.check_child(child, csv, module.load_golden()["configs"].get(FULL_CONFIG),
                                   None)
    if reason is not None:
        return [], {"correct": False, "failures": [reason]}
    wall = child.wall_s * scale
    row = {"wall_s": wall, "run_s": (child.wall_s - child.setup_s) * scale,
           "us_per_iter": wall / child.report["iterations"] * 1e6,
           "setup_s": child.setup_s, "peak_rss_mb": child.maxrss_mb}
    return [row], {"correct": True, "failures": [],
                   "final_fidelity_min": module.final_fidelity_min(csv)}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one figure."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("trees", nargs="+", metavar="PR=REV")
    args = parser.parse_args(argv)
    pairs = [item.split("=", 1) for item in args.trees]
    if any(len(pair) != 2 or not pair[0].isdigit() for pair in pairs):
        parser.error("each tree is PR=REV, with PR a number")

    session = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    scratch = Path(tempfile.mkdtemp(prefix="trajectory-"))
    trees = {}
    try:
        for pr, rev in pairs:
            path = scratch / f"pr{pr}"
            path.mkdir()
            commit, worktree = extract(rev, path)
            trees[pr] = {"path": path, "commit": commit, "worktree": worktree,
                         "module": bench_module(path, f"bench_pr{pr}"),
                         "rows": {name: [] for name in (*WORKLOADS, FULL)},
                         "checks": {name: [] for name in (*WORKLOADS, FULL)}}
        order = list(trees)
        for r in range(ROUNDS):
            turn = order[r % len(order):] + order[:r % len(order)]
            for name in (*WORKLOADS, FULL):
                for pr in turn:
                    tree = trees[pr]
                    if name == FULL:
                        if any(not c["correct"] or "cut" in c for c in tree["checks"][FULL]):
                            continue  # failed or cut once: not run again
                        rows, check = full_size(tree["path"], tree["module"])
                    else:
                        rows, check = workload(tree["path"], name)
                    tree["rows"][name] += rows
                    tree["checks"][name].append(check)
                    print(f"round {r + 1} PR {pr} {name}: correct {check['correct']}",
                          flush=True)
        OUT.mkdir(exist_ok=True)
        for pr, tree in trees.items():
            doc = {
                "pr": int(pr),
                "commit": tree["commit"],
                "working_tree": tree["worktree"],
                "session": session,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu": tree["module"].cpu_model(),
                "rounds": ROUNDS,
                "seconds": SECONDS,
                "seed": SEED,
                "correct": all(c["correct"] for checks in tree["checks"].values()
                               for c in checks),
                "failures": sorted({f for checks in tree["checks"].values()
                                    for c in checks for f in c["failures"]}),
                "cut": {name: c["cut"] for name, checks in tree["checks"].items()
                        for c in checks if "cut" in c},
                "final_fidelity_min": {},
                "workloads": {},
            }
            for name, rows in tree["rows"].items():
                fidelity = {c["final_fidelity_min"] for c in tree["checks"][name]
                            if "final_fidelity_min" in c}
                doc["final_fidelity_min"][name] = min(fidelity) if fidelity else None
                doc["workloads"][name] = {
                    figure: summary([row[figure] for row in rows if figure in row])
                    for figure in FIGURES
                    if any(figure in row for row in rows)
                }
            path = OUT / f"BENCH_{pr}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
