"""The one-pass seeding is NumPy's own, seed for seed and stream for stream."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenrl import harness, seeding
from eigenrl.errors import ConfigError
from reference import derive_seed


@settings(max_examples=200, deadline=None)
@given(root=st.integers(0, 2**200 - 1), salt=st.integers(0, 2**64 - 1),
       count=st.integers(1, 64))
def test_derived_seeds_are_numpys(root, salt, count):
    assert seeding.derive_seeds(root, salt, count).tolist() == [
        derive_seed(root, i, salt) for i in range(count)]


@pytest.mark.parametrize("root", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3])
def test_a_thousand_derived_seeds_are_numpys(root):
    for salt in (harness._REP_SALT, harness._ENV_SALT):
        seeds = seeding.derive_seeds(root, salt, 1000)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(root, i, salt) for i in range(1000)]
        assert len(set(seeds.tolist())) == 1000


def test_generators_give_numpys_streams():
    """Each stream's first 300 doubles are those of ``default_rng``: for
    seeds of one and two 32-bit words, passed as Python ints or as the
    uint64 array the engine passes, and for wider seeds in one call with a
    narrow one, where only the wide take the pass's extra-word steps."""
    derived = seeding.derive_seeds(7, harness._REP_SALT, 1000)
    wide = [2**64, 2**100 + 3, 2**128, 2**130 + 9, 2**200 + 1, 5]
    for seeds in ([0, 1, 2**32 - 1, 2**32, 2**64 - 1, *derived.tolist()], derived, wide):
        for seed, rng in zip(seeds, seeding.generators(seeds), strict=True):
            want = np.random.default_rng(int(seed)).random(300)
            assert np.array_equal(rng.random(300), want), seed


def test_negative_seeds_are_refused():
    with pytest.raises(ConfigError, match="non-negative"):
        seeding.generators([3, -1])
    with pytest.raises(ConfigError, match="non-negative"):
        seeding.derive_seeds(-1, harness._REP_SALT, 4)


def test_the_member_limit_is_refused_before_any_work():
    with pytest.raises(ConfigError, match=str(seeding.MAX_MEMBERS)):
        seeding.derive_seeds(7, harness._REP_SALT, seeding.MAX_MEMBERS + 1)


def test_importing_the_command_line_leaves_numpy_random_unloaded():
    """``numpy.random`` costs milliseconds to import, so it is loaded on the
    first seeding, not with the package."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import eigenrl.cli\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
