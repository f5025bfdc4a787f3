"""Each script in ``scripts/`` runs to completion on tiny arguments and
prints its CSV header, so a change to the package API they import
cannot break them unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sichash

ROOT = Path(__file__).resolve().parent.parent
# the directory the tests import sichash from, so the scripts use the same package
PACKAGE_PARENT = str(Path(sichash.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("threshold_grid.py", ["--steps", "2"], "beta,x,p1,p2,p3,d_bar,c_star"),
        (
            "overload_sweep.py",
            ["--trials", "2", "--sizes", "100"],
            "config,m,min,q1,median,q3,max",
        ),
        (
            "space_vs_time.py",
            ["--n", "2000", "--bucket-size", "500"],
            "alpha,beta,x,bits_per_object,mobjects_per_s,mqueries_per_s",
        ),
    ],
    ids=["threshold_grid", "overload_sweep", "space_vs_time"],
)
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_PARENT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
