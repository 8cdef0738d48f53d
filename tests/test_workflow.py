"""The offline workflow runner, ``scripts/run_workflow.py``, and the CI file
it reads."""
import importlib.util
import re
from pathlib import Path

import pytest

pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("run_workflow", ROOT / "scripts" / "run_workflow.py")
run_workflow = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_workflow)


def test_the_runner_finds_every_run_step_of_the_workflow():
    """Each ``run:`` key of the file is a step the runner runs or skips by
    name, in file order, and each name it skips belongs to an install step."""
    text = run_workflow.WORKFLOW.read_text(encoding="utf-8")
    keys = re.findall(r"^\s+(?:- )?run:\s*(\S.*)$", text, flags=re.MULTILINE)
    steps = run_workflow.run_steps()
    assert len(steps) == len(keys) >= 9
    for (name, script), key in zip(steps, keys):
        first = script.splitlines()[0]
        assert key in ("|", first), (name, key)
    skipped = [script for name, script in steps if name in run_workflow.SKIPPED]
    assert len(skipped) == len(run_workflow.SKIPPED)
    assert all(script.startswith("python -m pip install ") for script in skipped)
    # the only other network line is the editable install, for which the
    # runner puts its eigenrl shim on PATH
    dropped = [line for name, script in steps if name not in run_workflow.SKIPPED
               for line in run_workflow.offline(script)[1]]
    assert [line.strip() for line in dropped] == ["python -m pip install --no-deps -e ."]
