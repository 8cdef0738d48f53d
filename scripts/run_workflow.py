"""Run the steps of the CI workflow locally, without the network.

Reads ``.github/workflows/tests.yml`` (with PyYAML) and runs each ``run:``
step in order, in a fresh ``bash -eo pipefail`` from the repository root
with ``RUNNER_TEMP`` set to a temporary directory, as a GitHub runner does.
Prints each step's exit code and wall time; exits 1 if any step failed.

Offline, two things differ from CI:

- the steps named in ``SKIPPED`` install packages from the network and are
  skipped, and so is every ``pip install`` line inside another step; the
  tools they install must already be present;
- ``eigenrl`` is not installed as a console script (the editable install
  needs ``setuptools>=68`` and may need the network to get it).  A shim
  ``eigenrl`` on ``PATH`` runs ``python -m eigenrl.cli`` with
  ``PYTHONPATH=src`` instead.

Usage: ``python3 scripts/run_workflow.py``; it takes no arguments.
"""
from __future__ import annotations

import os
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

#: steps that only install packages from the network
SKIPPED = {"Install numpy, pytest, hypothesis and pyyaml"}


def run_steps() -> list[tuple[str, str]]:
    """(name, script) of every ``run:`` step of every job, in file order."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [
        (step.get("name", step["run"].splitlines()[0]), step["run"])
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "run" in step
    ]


def offline(script: str) -> tuple[str, list[str]]:
    """The script without its ``pip install`` lines, and those lines."""
    lines = script.splitlines()
    dropped = [line for line in lines if "pip install" in line]
    return "\n".join(line for line in lines if "pip install" not in line), dropped


def shim(directory: Path) -> None:
    """Write an ``eigenrl`` command into ``directory`` that runs the CLI from
    ``src/``."""
    path = directory / "eigenrl"
    path.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH="{ROOT / "src"}${{PYTHONPATH:+:$PYTHONPATH}}" '
        f'exec "{sys.executable}" -m eigenrl.cli "$@"\n'
    )
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)


def main() -> int:
    steps = run_steps()
    failed = skipped = 0
    with tempfile.TemporaryDirectory(prefix="workflow-") as temp:
        bin_dir = Path(temp) / "bin"
        bin_dir.mkdir()
        shim(bin_dir)
        env = {**os.environ, "RUNNER_TEMP": temp,
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
        for name, script in steps:
            if name in SKIPPED:
                print(f"SKIPPED  {name} (installs from the network)", flush=True)
                skipped += 1
                continue
            script, dropped = offline(script)
            for line in dropped:
                print(f"         dropped `{line.strip()}` (not run offline)", flush=True)
            start = time.perf_counter()
            code = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                                   script], cwd=ROOT, env=env).returncode
            seconds = time.perf_counter() - start
            print(f"exit {code:<3} {seconds:7.1f} s  {name}", flush=True)
            failed += code != 0
    print(f"{len(steps)} steps: {skipped} skipped, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
