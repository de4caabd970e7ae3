import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEMOS = _ROOT / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in _DEMOS.glob("*.py")))
def test_demo_output_matches_expected(name):
    # The same check as the CI demo step: stdout byte for byte against
    # demos/expected/, with the package on PYTHONPATH.
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(_DEMOS / f"{name}.py")],
        capture_output=True,
        cwd=_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (_DEMOS / "expected" / f"{name}.txt").read_bytes()
