"""The CI workflow and ``scripts/ci.sh``, which holds its checks."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the two installs: the pinned test tools, then this package's console script
INSTALL = re.compile(r'python -m pip install( "[\w-]+==[\w.]+")+|python -m pip install --no-deps -e \.')


def test_every_workflow_step_is_a_pinned_install_or_a_step_of_ci_sh():
    """The workflow runs two pinned ``pip install`` commands and, for each
    name of the script's ``STEPS`` in order, ``bash scripts/ci.sh NAME``,
    so the script run offline runs what CI runs; and the script defines one
    function of each name."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    script = (ROOT / "scripts" / "ci.sh").read_text(encoding="utf-8")
    runs = [run.strip() for run in re.findall(r"^\s+(?:- )?run:(.*)$", workflow, flags=re.MULTILINE)]
    steps = re.search(r"^STEPS=\(([\w ]+)\)$", script, flags=re.MULTILINE)[1].split()
    assert len(runs) == len(steps) + 2, runs
    assert [run for run in runs if not INSTALL.fullmatch(run)] == [f"bash scripts/ci.sh {step}" for step in steps]
    assert all(script.count(f"\n{step}() {{\n") == 1 for step in steps)
