"""The CLI's answers do not depend on the interpreter's hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def cudfsolve(*argv, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, "-m", "cudfsolve", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("criteria", ["paranoid", "trendy"])
def test_solve_is_the_same_under_any_hash_seed(tmp_path, criteria):
    # the default densities make this document infeasible before search;
    # these reach the optimizer with several bound steps per level
    path = str(tmp_path / "gen.cudf")
    knobs = ["--conflicts-density", "0.05", "--depends-density", "0.3"]
    code, _, _ = cudfsolve("gen", "--seed", "5", "--packages", "200", *knobs, "-o", path, hash_seed=0)
    assert code == 0
    first, second = (cudfsolve("solve", path, "-c", criteria, hash_seed=seed) for seed in (0, 1))
    assert first == second
    assert first[0] == 0 and "objective: " in first[2]
