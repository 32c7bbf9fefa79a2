import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qincompat.cli
from qincompat.cli import build_parser, main

# every option each command takes; each one is read by its command
COMMAND_OPTIONS = {
    "check": {"--bases", "--oracle", "--output"},
    "assemblage": {"--k", "--oracle", "--output"},
    "region": {"--rays", "--oracle", "--output", "--format"},
    "figure fig1": {"--B", "--C", "--resolution", "--oracle", "--output",
                    "--format"},
    "figure fig2": {"--d", "--resolution", "--output", "--format"},
    "validate": {"--output"},
}


@pytest.fixture
def specs(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    return {
        "dep08": write("dep08.json", {"kind": "depolarizing", "d": 2, "t": 0.8}),
        "dep06": write("dep06.json", {"kind": "depolarizing", "d": 2, "t": 0.6}),
        "dep075": write("dep075.json", {"kind": "depolarizing", "d": 2, "t": 0.75}),
        "delta": write("delta.json", {"kind": "depolarizing", "d": 2, "t": 0.0}),
        "schur": write(
            "schur.json",
            {"kind": "schur", "B": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]},
        ),
        "schur3": write(
            "schur3.json",
            {"kind": "schur", "B": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                    [[0, 0], [0, 0], [1, 0]]]},
        ),
        "bad_schur": write(
            "bad.json", {"kind": "schur", "B": [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]}
        ),
        "no_b": write("no_b.json", {"kind": "schur"}),
        "dep_d0": write("dep_d0.json", {"kind": "depolarizing", "d": 0, "t": 0.5}),
        "choi_d0": write(
            "choi_d0.json", {"kind": "choi", "d_in": 0, "d_out": 0, "entries": []}
        ),
        "dep_d15": write("dep_d15.json", {"kind": "depolarizing", "d": 1.5, "t": 0.5}),
        "dep_dtrue": write(
            "dep_dtrue.json", {"kind": "depolarizing", "d": True, "t": 0.5}
        ),
        "choi_d25": write(
            "choi_d25.json", {"kind": "choi", "d_in": 2, "d_out": 2.5, "entries": []}
        ),
        "dep_ttrue": write(
            "dep_ttrue.json", {"kind": "depolarizing", "d": 2, "t": True}
        ),
        "dep_tstr": write("dep_tstr.json", {"kind": "depolarizing", "d": 2, "t": "0.8"}),
        "povm_d15": write("povm_d15.json", {"kind": "povm", "d": 1.5, "effects": []}),
        "listed": write("listed.json", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
        "dep_d1": write("dep_d1.json", {"kind": "depolarizing", "d": 1, "t": 1.0}),
        # the qubit identity's Choi matrix with a NaN first entry; json
        # writes and reads the NaN literal
        "choi_nan": write("choi_nan.json", {"kind": "choi", "d_in": 2, "d_out": 2, "entries": [
            [float("nan") if k == 0 else float(k in (0, 3, 12, 15)), 0] for k in range(16)]}),
        "bases_1x1": write("bases_1x1.json", {"bases": [[[[1, 0]]], [[[1, 0]]]]}),
        "bases_3x3": write("bases_3x3.json", {"bases": [
            [[[float(i == j), 0] for j in range(3)] for i in range(3)]] * 2}),
        "dir": tmp_path,
    }


def test_check_incompatible_with_oracle(specs, capsys):
    code = main(["check", specs["dep08"], specs["dep08"], "--oracle"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["criterion"]["kind"] == "incompatible-certified"
    assert report["oracle"]["status"] == "infeasible"
    # tolerances are library constants; the report does not repeat them
    assert "tolerances" not in report
    for verdict in (report["criterion"], report["oracle_verdict"]):
        assert set(verdict) == {"kind", "value", "certificate"}
    assert "dual bound" in report["criterion"]["certificate"]
    # the oracle's infeasible verdict rests on its dual bound, not on lambda*
    assert report["oracle_verdict"]["certificate"].startswith(
        "oracle dual bound lambda* + gap = "
    )


def test_check_delta_is_compatible(specs, capsys):
    code = main(["check", specs["delta"], specs["dep08"], "--oracle"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["status"] == "feasible"


def test_check_criterion_only_undetermined(specs, capsys):
    code = main(["check", specs["dep06"], specs["dep06"]])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["criterion"]["kind"] == "undetermined"
    assert "oracle" not in report


def test_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "depolarizing", "d": 2, ')
    code = main(["check", str(bad), str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_check_missing_file(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.json")])
    assert code == 1


def test_validate(specs, capsys):
    assert main(["validate", specs["dep08"], specs["schur"]]) == 0
    capsys.readouterr()
    code = main(["validate", specs["bad_schur"]])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"]
    assert report["violations"][0]["error"]


@pytest.mark.parametrize("spec", ["dep_d0", "choi_d0"])
def test_validate_reports_zero_dimension(spec, specs, capsys):
    assert main(["validate", specs[spec]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"]
    assert report["violations"] == [
        {"spec": specs[spec], "error": "dimensions must be at least 1, got 0 -> 0"}
    ]


@pytest.mark.parametrize(
    "spec, error",
    [
        ("dep_d15", "dimension 'd' must be an integer, got 1.5"),
        ("dep_dtrue", "dimension 'd' must be an integer, got True"),
        ("choi_d25", "dimension 'd_out' must be an integer, got 2.5"),
        ("povm_d15", "dimension 'd' must be an integer, got 1.5"),
    ],
)
def test_validate_reports_non_integral_dimension(spec, error, specs, capsys):
    # int() would truncate 1.5 and True to a valid-looking d = 1
    assert main(["validate", specs[spec]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [{"spec": specs[spec], "error": error}]


def test_validate_reports_non_finite_entries(specs, capsys):
    # NaN passes every "defect > tol" test, so it is refused on entry
    assert main(["validate", specs["dep08"], specs["choi_nan"]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"]
    assert report["violations"] == [{
        "spec": specs["choi_nan"],
        "error": "matrix has a non-finite entry (NaN or infinity)",
    }]


def test_assemblage(specs, capsys):
    code = main(
        ["assemblage", specs["dep075"], specs["dep075"], specs["dep075"], "--k", "2"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "(N,K)-strong-incompatible" in report["labels"]
    assert set(report["subsets"]) == {"0,1", "0,2", "1,2"}
    for verdict in report["subsets"].values():
        assert "margin" not in verdict


def test_assemblage_k_too_large(specs, capsys):
    assert main(["assemblage", specs["dep075"], "--k", "2"]) == 1


def test_figure_fig2(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code = main(
        ["figure", "fig2", "--d", "2,5,20", "--resolution", "50",
         "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,s,t_exact,t_criterion"
    assert len(lines) == 1 + 3 * 50
    assert "passed" in capsys.readouterr().err


def test_figure_fig1(specs, capsys):
    code = main(
        ["figure", "fig1", "--B", specs["schur"], "--resolution", "10"]
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert len(report["rows"]) == 100
    assert "passed" in captured.err


def test_region_command(specs, capsys):
    code = main(
        ["region", specs["dep08"], specs["dep08"], "--rays", "3", "--oracle"]
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert len(report["rows"]) == 3
    assert "outer-bound check passed" in captured.err


def test_region_csv_cells_are_numbers(specs, capsys):
    code = main(["region", specs["dep08"], specs["dep08"], "--rays", "3", "--oracle",
                 "--format", "csv"])
    assert code == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "u0,u1,criterion_radius,oracle_radius"
    assert len(rows) == 3
    for row in rows:
        for cell in row.split(","):
            float(cell)
    # diagonal: criterion circle 2 (0.8 r / sqrt 2)^2 = 1, exact boundary t = 2/3
    _, _, crit, orac = (float(c) for c in rows[1].split(","))
    assert abs(crit - 1.25) < 1e-3
    assert abs(orac - (2.0 / 3.0) * 2.0 ** 0.5 / 0.8) < 1e-3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["figure", "fig2", "--d", "0"], "d=0"),
        (["figure", "fig2", "--d", "2,1"], "d=1"),
        (["figure", "fig1", "--B", "{no_b}"], "bad Schur spec"),
        (["figure", "fig1", "--B", "{schur}", "--C", "{listed}"], "bad Schur spec"),
        (["figure", "fig1", "--B", "{schur}", "--C", "{schur3}"],
         "all channels must share one square dimension"),
        (["figure", "fig2", "--d", ","], "at least one dimension"),
        (["figure", "fig2", "--d", ""], "at least one dimension"),
        (["figure", "fig2", "--d", "2,x"], "figure fig2 --d takes integers, got 'x'"),
        (["figure", "fig2", "--d", "2.5"], "figure fig2 --d takes integers, got '2.5'"),
        (["check", "{dep08}", "{dep08}", "--bases", "canonical-fourier"],
         "cannot read canonical-fourier"),
        (["region", "{dep08}", "{dep08}", "{dep08}", "--rays", "2"],
         "region scans channel pairs: pass 2 specs, got 3"),
        (["check", "{dep_d0}", "{dep_d0}"], "dimensions must be at least 1"),
        (["check", "{choi_d0}", "{choi_d0}"], "dimensions must be at least 1"),
        (["check", "{dep_d15}", "{dep_d15}"],
         "dimension 'd' must be an integer, got 1.5"),
        (["check", "{dep_dtrue}", "{dep_dtrue}"],
         "dimension 'd' must be an integer, got True"),
        (["check", "{choi_d25}", "{choi_d25}"],
         "dimension 'd_out' must be an integer, got 2.5"),
        (["check", "{dep_ttrue}"], "'t' must be a number, got True"),
        (["check", "{dep_tstr}"], "'t' must be a number, got '0.8'"),
        (["check", "{dep_d1}", "{dep_d1}", "--bases", "{bases_1x1}"],
         "dimension must be at least 2"),
        (["check", "{dep08}", "{dep08}", "--bases", "{bases_3x3}"],
         "basis dimension 3 does not match output dimension 2"),
        (["check", "{choi_nan}", "{choi_nan}"],
         "matrix has a non-finite entry (NaN or infinity)"),
    ],
    ids=["fig2-d0", "fig2-d1", "fig1-no-B", "fig1-C-list", "fig1-C-qutrit",
         "fig2-d-empty-comma",
         "fig2-d-empty", "fig2-d-not-int-x", "fig2-d-not-int-2.5",
         "check-bases-canonical-fourier", "region-three-specs",
         "check-depolarizing-d0", "check-choi-d0", "check-depolarizing-d1.5",
         "check-depolarizing-d-true", "check-choi-d_out-2.5", "t-true", "t-string",
         "check-d1-user-bases", "check-qutrit-bases-on-qubits", "check-choi-nan"],
)
def test_bad_input_is_one_error_line(argv, message, specs, capsys):
    assert main([a.format(**specs) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_check_with_user_bases_file(specs, tmp_path, capsys):
    s = 2 ** -0.5
    bases = {
        "bases": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[s, 0], [s, 0]], [[s, 0], [-s, 0]]],
        ]
    }
    path = tmp_path / "bases.json"
    path.write_text(json.dumps(bases))
    code = main(["check", specs["dep08"], specs["dep08"], "--bases", str(path)])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert "user-0" in report["criterion"]["certificate"]


@pytest.mark.parametrize("d", [5, 6, 7, 11])
def test_check_single_channel_is_never_certified(d, tmp_path, capsys):
    # one channel is always compatible; its criterion value in the Fourier
    # basis is exactly d, so a dual bound above d would be round-off
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "depolarizing", "d": d, "t": 1.0}))
    fourier = np.exp(2j * np.pi * np.outer(range(d), range(d)) / d) / np.sqrt(d)
    bases = tmp_path / "fourier.json"
    bases.write_text(json.dumps(
        {"bases": [[[[z.real, z.imag] for z in row] for row in fourier]]}
    ))
    assert main(["check", str(spec), "--bases", str(bases)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["criterion"]["kind"] == "undetermined"


def test_module_runs_as_a_script(specs):
    src = os.path.dirname(os.path.dirname(qincompat.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "qincompat.cli", "check", specs["dep08"], specs["dep08"]],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["criterion"]["kind"] == "incompatible-certified"


def test_byte_identical_output(specs, capsys):
    main(["check", specs["dep08"], specs["dep08"]])
    first = capsys.readouterr().out
    main(["check", specs["dep08"], specs["dep08"]])
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main(["check"]) == 1
    assert main(["bogus"]) == 1


def test_calls_in_a_row_share_one_parser(specs, capsys):
    # the parser is built once per process; a usage error leaves nothing
    # behind for the next call
    assert main(["check", specs["dep08"], specs["dep08"]]) == 2
    first = capsys.readouterr().out
    assert main(["check", specs["dep08"], "--k", "1"]) == 1
    assert main(["check", specs["delta"], specs["delta"], "--oracle"]) == 0
    assert main(["check", specs["dep08"], specs["dep08"]]) == 2
    assert capsys.readouterr().out.endswith(first)
    assert qincompat.cli._parser() is qincompat.cli._parser()


def test_solver_runtime_error_is_reported(specs, capsys, monkeypatch):
    def broken_oracle(*args, **kwargs):
        raise RuntimeError("barrier iterate left the feasible cone")

    monkeypatch.setattr(qincompat.cli, "solve_joint_channel", broken_oracle)
    code = main(["check", specs["dep08"], specs["dep08"], "--oracle"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: barrier iterate left the feasible cone\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_command_takes_only_options_it_reads(command, specs, capsys):
    # "figure fig1" walks one parser level deeper than "check"
    parser = build_parser()
    for word in command.split():
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parser = sub.choices[word]
    flags = {
        flag
        for action in parser._actions
        if action.dest != "help"
        for flag in action.option_strings
    }
    assert flags == COMMAND_OPTIONS[command]
    # tolerances are library constants; no report repeats them
    argv = {
        "check": ["check", specs["dep08"], specs["dep08"]],
        "assemblage": ["assemblage", specs["dep08"], specs["dep06"], "--k", "1"],
        "region": ["region", specs["dep08"], specs["dep08"], "--rays", "1"],
        "figure fig1": ["figure", "fig1", "--B", specs["schur"], "--resolution", "2"],
        "figure fig2": ["figure", "fig2", "--resolution", "16"],
        "validate": ["validate", specs["dep08"]],
    }[command]
    main(argv)
    report = json.loads(capsys.readouterr().out)
    assert "tolerances" not in report
    assert "tolerances" not in report.get("meta", {})


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("check", "--format", "csv"),
        ("check", "--margin", "1e-6"),
        ("check", "--oracle-gap", "1e-5"),
        ("check", "--budget", "5000"),
        ("check", "--sdp-gap", "1e-6"),
        ("assemblage", "--format", "csv"),
        ("assemblage", "--bases", "auto"),
        ("validate", "--format", "csv"),
        ("region", "--sdp-gap", "0.5"),
        ("region", "--oracle-gap", "0.5"),
        ("region", "--bisect-tol", "1e-3"),
        ("figure", "--margin", "5"),
        ("figure", "--sdp-gap", "0.5"),
        ("figure", "--budget", "5000"),
        # each figure takes only its own flags
        ("figure fig2", "--B", "schur.json"),
        ("figure fig2", "--oracle", None),
        ("figure fig1", "--d", "2"),
    ],
)
def test_flag_a_command_does_not_take_is_a_usage_error(
    command, flag, value, specs, capsys
):
    argv = command.split()
    if argv == ["figure"]:
        argv.append("fig2")
    elif argv[0] != "figure":
        argv.append(specs["dep08"])
    given = [flag] if value is None else [flag, value]
    extra = ["--k", "1"] if command == "assemblage" else []
    assert main(argv + given + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"unrecognized arguments: {' '.join(given)}" in captured.err
    assert "Traceback" not in captured.err
