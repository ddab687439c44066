"""The CLI's answers do not depend on the interpreter's hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import _upgrade_heavy

from cudfsolve import render_document

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


# the default densities make this document infeasible before search;
# these reach the optimizer with several bound steps per level
KNOBS = ["--conflicts-density", "0.05", "--depends-density", "0.3"]


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("det") / "gen.cudf")
    argv = ["gen", "--seed", "5", "--packages", "200", *KNOBS, "-o", path]
    assert cudfsolve(*argv, hash_seed=0)[0] == 0
    return path


@pytest.fixture(scope="module")
def answer(instance):
    path = instance.replace("gen.cudf", "answer.cudf")
    assert cudfsolve("solve", instance, "-c", "trendy", "-o", path, hash_seed=0)[0] == 0
    return path


@pytest.mark.parametrize("criteria", ["paranoid", "trendy"])
def test_solve_is_the_same_under_any_hash_seed(instance, criteria):
    first, second = (cudfsolve("solve", instance, "-c", criteria, hash_seed=s) for s in (0, 1))
    assert first == second
    assert first[0] == 0 and "objective: " in first[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["facts", "-c", "trendy"],
        ["facts", "-c", "trendy", "--no-closure"],
        ["closure", "-c", "trendy"],
        ["validate", "answer"],
        ["validate", "start"],  # the starting state breaks the request
    ],
    ids=lambda argv: "-".join(argv),
)
def test_subcommands_are_the_same_under_any_hash_seed(instance, answer, argv):
    # set identifiers follow the interned sets' iteration order in
    # facts.generate, and validation reports one line per violation
    argv = [{"answer": answer, "start": instance}.get(arg, arg) for arg in argv]
    first, second = (cudfsolve(argv[0], instance, *argv[1:], hash_seed=seed) for seed in (0, 1))
    assert first == second
    assert first[1]


@pytest.fixture(scope="module")
def upgrade_heavy(tmp_path_factory):
    # gen never aims an upgrade clause at a provided name; this document
    # upgrades p8 and virt2 | p4 = 3, and its starting state downgrades
    # both upgraded names and makes several versions of each available
    path = tmp_path_factory.mktemp("det") / "upgrade.cudf"
    path.write_text(render_document(_upgrade_heavy(37)))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["facts", "-c", "trendy"],
        ["facts", "-c", "trendy", "--no-closure"],
        ["closure", "-c", "trendy"],
        ["validate", "start"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_upgrade_rules_are_the_same_under_any_hash_seed(upgrade_heavy, argv):
    argv = [upgrade_heavy if arg == "start" else arg for arg in argv]
    first, second = (
        cudfsolve(argv[0], upgrade_heavy, *argv[1:], hash_seed=seed) for seed in (0, 1)
    )
    assert first == second
    assert first[1]
    if argv[0] == "validate":
        assert "downgrades virt2" in first[1] and "several versions of virt2" in first[1]


def test_validate_names_the_same_unknown_package_under_any_hash_seed(tmp_path):
    start = tmp_path / "start.cudf"
    start.write_text("package: a\nversion: 1\ninstalled: true\n\nrequest: \n")
    answer = tmp_path / "answer.cudf"
    answer.write_text(
        "".join(f"package: {n}\nversion: 1\ninstalled: true\n\n" for n in "zyxwv")
    )
    for seed in (0, 1, 2):
        code, stdout, _ = cudfsolve("validate", str(start), str(answer), hash_seed=seed)
        assert (code, stdout) == (1, "unknown package in solution: v=1 is not in the document\n")
