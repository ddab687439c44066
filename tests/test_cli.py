import importlib
import io
import time

import pytest

from cudfsolve import DocIndex, PackageId, generate_instance, parse_document, render_document
from cudfsolve import cli
from cudfsolve.cli import main

INFEASIBLE = "package: a\nversion: 1\n\nrequest: \ninstall: ghost\n"


@pytest.fixture()
def scenario_path(tmp_path, scenario_text):
    path = tmp_path / "upgrade.cudf"
    path.write_text(scenario_text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_installed_stanzas(capsys, scenario_path, scenario_doc):
    code, out, err = run_cli(capsys, "solve", scenario_path)
    assert code == 0
    assert "objective: -removed=0 -changed=2" in err
    solution = parse_document(out)
    assert all(p.installed for p in solution.packages)
    chosen = solution.installed_ids()
    assert any(pid.name == "inst" for pid in chosen)


def test_solve_reads_standard_input(capsys, monkeypatch, scenario_text):
    monkeypatch.setattr("sys.stdin", io.StringIO(scenario_text))
    code, out, _ = run_cli(capsys, "solve", "-")
    assert code == 0 and "installed: true" in out


def test_solve_criteria_flag_accepts_leading_dashes(capsys, scenario_path):
    code, first, _ = run_cli(capsys, "solve", scenario_path, "-c", "-removed,-changed")
    assert code == 0
    code, second, _ = run_cli(capsys, "solve", scenario_path, "-c=-removed,-changed")
    assert code == 0
    code, preset, _ = run_cli(capsys, "solve", scenario_path, "--criteria", "paranoid")
    assert code == 0
    assert first == second == preset


def test_solve_trendy(capsys, scenario_path):
    code, out, err = run_cli(capsys, "solve", scenario_path, "-c", "trendy")
    assert code == 0
    assert "objective: " in err
    assert "-new=" in err


def test_solve_infeasible_prints_fail(capsys, tmp_path):
    path = tmp_path / "bad.cudf"
    path.write_text(INFEASIBLE)
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0 and out == "FAIL\n"


def test_solve_unsatisfiable_prints_fail_and_nothing_else(capsys, tmp_path):
    path = tmp_path / "clash.cudf"
    path.write_text(
        "package: a\nversion: 1\ndepends: b\n\n"
        "package: b\nversion: 1\nconflicts: a\n\n"
        "request: \ninstall: a\n"
    )
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out, err) == (0, "FAIL\n", "")


def test_solve_timeout_before_any_model_says_so(capsys, scenario_path):
    code, out, err = run_cli(capsys, "solve", scenario_path, "--timeout", "0")
    assert (code, out, err) == (0, "FAIL\n", "timed out; no solution found\n")


def test_timeout_clock_starts_before_parsing(capsys, monkeypatch, scenario_path):
    original = cli.parse_document

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_document", slow)
    code, out, err = run_cli(capsys, "solve", scenario_path, "--timeout", "0.2")
    assert (code, out, err) == (0, "FAIL\n", "timed out; no solution found\n")


@pytest.mark.parametrize("seconds", ["-1", "-0.5", "nan", "NaN", "soon"])
def test_bad_timeout_is_a_usage_error(capsys, scenario_path, seconds):
    with pytest.raises(SystemExit) as info:
        main(["solve", scenario_path, f"--timeout={seconds}"])
    assert info.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_solve_no_closure_matches(capsys, scenario_path):
    _, narrow, err_narrow = run_cli(capsys, "solve", scenario_path)
    _, wide, err_wide = run_cli(capsys, "solve", scenario_path, "--no-closure")
    objective = [line for line in err_narrow.splitlines() if "objective" in line]
    wide_objective = [line for line in err_wide.splitlines() if "objective" in line]
    assert objective == wide_objective


def test_output_flag_writes_a_file(capsys, tmp_path, scenario_path):
    target = tmp_path / "answer.cudf"
    code, out, _ = run_cli(capsys, "solve", scenario_path, "-o", str(target))
    assert code == 0 and out == ""
    assert "installed: true" in target.read_text()


def test_facts_subcommand(capsys, scenario_path):
    code, out, _ = run_cli(capsys, "facts", scenario_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("unit(")
    assert "criterion(change,-1)." in lines
    assert "criterion(remove,-2)." in lines
    # positions count up from the least significant criterion, in that order
    expected = {
        "paranoid": ["criterion(change,-1).", "criterion(remove,-2)."],
        "trendy": [
            "criterion(newpackage,-1).",
            "criterion(recommend,-2).",
            "criterion(uptodate,-3).",
            "criterion(remove,-4).",
        ],
        "+new,-removed,-unsat_recommends": [
            "criterion(recommend,-1).",
            "criterion(remove,-2).",
            "criterion(newpackage,3).",
        ],
    }
    for criteria, criterion_lines in expected.items():
        code, out, _ = run_cli(capsys, "facts", scenario_path, f"-c={criteria}")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("criterion(")] == (
            criterion_lines
        )


def test_facts_infeasible_prints_fail(capsys, tmp_path):
    path = tmp_path / "bad.cudf"
    path.write_text(INFEASIBLE)
    code, out, _ = run_cli(capsys, "facts", str(path))
    assert code == 0 and out == "FAIL\n"


def test_closure_report(capsys, scenario_path):
    code, out, _ = run_cli(capsys, "closure", scenario_path)
    assert code == 0
    assert out == "universe=12 out=1 closure=9 feasible=true iterations=0\n"


def test_closure_report_without_shrinking(capsys, scenario_path):
    code, out, _ = run_cli(capsys, "closure", scenario_path, "--no-closure")
    assert code == 0
    assert out == "universe=12 out=1 closure=11 feasible=true iterations=0\n"


def test_closure_report_infeasible(capsys, tmp_path):
    path = tmp_path / "bad.cudf"
    path.write_text(INFEASIBLE)
    code, out, _ = run_cli(capsys, "closure", str(path))
    assert code == 0
    assert out == "universe=1 out=0 closure=0 feasible=false iterations=0\n"


def test_validate_accepts_a_solver_answer(capsys, tmp_path, scenario_path):
    answer = tmp_path / "answer.cudf"
    assert run_cli(capsys, "solve", scenario_path, "-o", str(answer))[0] == 0
    code, out, _ = run_cli(capsys, "validate", scenario_path, str(answer))
    assert code == 0 and out == "OK\n"


def test_validate_rejects_a_broken_answer(capsys, tmp_path, scenario_path):
    answer = tmp_path / "answer.cudf"
    answer.write_text("package: inst\nversion: 3\ninstalled: true\n")
    code, out, _ = run_cli(capsys, "validate", scenario_path, str(answer))
    assert code == 1
    assert "unsatisfied request" in out


def test_validate_rejects_unknown_packages(capsys, tmp_path, scenario_path):
    answer = tmp_path / "answer.cudf"
    answer.write_text("package: ghost\nversion: 9\ninstalled: true\n")
    code, out, _ = run_cli(capsys, "validate", scenario_path, str(answer))
    assert code == 1
    assert out.startswith("unknown package in solution")


def test_validate_reads_a_fail_answer(capsys, tmp_path):
    # the FAIL that `solve -o` writes for an unsatisfiable request is read,
    # not rejected as a syntax error, and leaves nothing to validate
    path, answer = tmp_path / "ghost.cudf", tmp_path / "answer.cudf"
    path.write_text(INFEASIBLE)
    assert run_cli(capsys, "solve", str(path), "-o", str(answer)) == (0, "", "")
    assert answer.read_text() == "FAIL\n"
    code, out, err = run_cli(capsys, "validate", str(path), str(answer))
    assert (code, out, err) == (1, "FAIL: no selection to check\n", "")


def test_validate_takes_no_criteria(capsys, tmp_path, scenario_path):
    answer = tmp_path / "answer.cudf"
    assert run_cli(capsys, "solve", scenario_path, "-o", str(answer))[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["validate", scenario_path, str(answer), "-c", "trendy"])
    assert info.value.code == 2


def test_solve_builds_one_index(capsys, monkeypatch, scenario_path):
    built = []
    original = DocIndex.__init__

    def counting(self, doc):
        built.append(doc)
        original(self, doc)

    monkeypatch.setattr(DocIndex, "__init__", counting)
    code, _, err = run_cli(capsys, "solve", scenario_path, "-c", "trendy")
    assert code == 0 and "objective: " in err
    assert len(built) == 1


def test_gen_emits_a_parseable_document(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "5", "--packages", "15")
    assert code == 0
    doc = parse_document(out)
    assert len(doc.packages) == 15


def test_gen_is_byte_deterministic(capsys):
    first = run_cli(capsys, "gen", "--seed", "9")
    second = run_cli(capsys, "gen", "--seed", "9")
    assert first == second


def test_gen_takes_the_generator_defaults(capsys):
    _, out, _ = run_cli(capsys, "gen", "--seed", "5")
    assert out == render_document(generate_instance(5))
    _, out, _ = run_cli(capsys, "gen", "--seed", "5", "--packages", "15", "--remove-requests", "2")
    assert out == render_document(generate_instance(5, packages=15, remove_requests=2))


def test_parse_errors_exit_2(capsys, tmp_path):
    path = tmp_path / "junk.cudf"
    path.write_text("package: a\nversion: one\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 2")


def test_missing_input_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.cudf"))
    assert code == 2 and err.startswith("error:")


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.cudf"
    path.write_bytes("package: caf\xe9\nversion: 1\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_solution_that_is_not_utf8_exits_2(capsys, tmp_path, scenario_path):
    answer = tmp_path / "answer.cudf"
    answer.write_bytes(b"package: inst\xff\nversion: 3\ninstalled: true\n")
    code, out, err = run_cli(capsys, "validate", scenario_path, str(answer))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("flag", ["--packages", "--max-versions"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_gen_sizes_below_one_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["gen", f"{flag}={value}"])
    assert info.value.code == 2
    assert f"{flag}: expected a whole number >= 1, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--install-requests", "--upgrade-requests", "--remove-requests"])
def test_gen_negative_request_counts_are_usage_errors(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["gen", flag, "-1"])
    assert info.value.code == 2
    assert f"{flag}: expected a whole number >= 0, got '-1'" in capsys.readouterr().err


PROBABILITY_FLAGS = [
    "--installed-fraction",
    "--depends-density",
    "--conflicts-density",
    "--provides-density",
    "--recommends-density",
]


@pytest.mark.parametrize("flag", PROBABILITY_FLAGS)
@pytest.mark.parametrize("value", ["1.5", "-1", "nan", "inf", "half"])
def test_gen_probabilities_outside_unit_interval_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["gen", f"{flag}={value}"])
    assert info.value.code == 2
    assert f"{flag}: expected a probability in [0, 1], got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", PROBABILITY_FLAGS)
@pytest.mark.parametrize("value", ["0", "1", "0.25"])
def test_gen_accepts_probabilities_in_unit_interval(capsys, flag, value):
    code, out, err = run_cli(capsys, "gen", f"{flag}={value}")
    assert (code, err) == (0, "")
    assert out.startswith("package: ")


@pytest.mark.parametrize("flag", ["--install-requests", "--upgrade-requests", "--remove-requests"])
def test_gen_accepts_zero_requests(capsys, flag):
    code, out, err = run_cli(capsys, "gen", flag, "0")
    assert (code, err) == (0, "")
    assert out.startswith("package: ")


def test_bad_criteria_exit_2(capsys, scenario_path):
    code, _, err = run_cli(capsys, "solve", scenario_path, "-c", "-sideways")
    assert code == 2 and "criterion" in err


def test_unknown_properties_are_reported_on_stderr(capsys, tmp_path):
    path = tmp_path / "odd.cudf"
    path.write_text("package: a\nversion: 1\nflavour: mint\n\nrequest: \ninstall: a\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert "unknown property 'flavour'" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_every_subcommand_runs_twice_identically(capsys, tmp_path, scenario_path):
    answer = tmp_path / "answer.cudf"
    run_cli(capsys, "solve", scenario_path, "-o", str(answer))
    invocations = [
        ("solve", scenario_path),
        ("solve", scenario_path, "-c", "trendy"),
        ("facts", scenario_path),
        ("closure", scenario_path),
        ("validate", scenario_path, str(answer)),
        ("gen", "--seed", "3"),
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, f"{argv} was not reproducible"


@pytest.mark.parametrize("module, command", [("cli", "facts"), ("solve", "solve")])
def test_an_interrupt_outside_the_search_exits_130(
    capsys, monkeypatch, scenario_path, module, command
):
    # Ctrl-C raises KeyboardInterrupt wherever the command happens to be;
    # raising it from the closure needs no signal and no clock
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    owner = importlib.import_module(f"cudfsolve.{module}")
    monkeypatch.setattr(owner, "compute_closure", interrupted)
    try:
        code, out, err = run_cli(capsys, command, scenario_path)
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("the interrupt escaped the command")
    assert (code, out, err) == (130, "", "interrupted\n")
