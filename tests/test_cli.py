import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohgeom
from cohgeom import cli, spin_matrices, su2_tilde_minus
from cohgeom.cli import main


def run_cli(args):
    return main(list(args))


def test_pullback_pass_exit_zero(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(["pullback", "--family", "wh", "--squeeze", "0",
                    "--grid", "3x3", "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("re_alpha,im_alpha,squeeze,g11,g12,g22,omega12")
    assert lines[-1].startswith("# summary:")
    assert "pass=true" in lines[-1]


def test_pullback_impossible_tolerance_fails(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(["pullback", "--family", "wh", "--grid", "3x3",
                    "--tol", "1e-18", "--out", str(out)])
    assert code == 1
    assert "pass=false" in out.read_text().splitlines()[-1]


def test_pullback_squeezed_rows(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(["pullback", "--family", "wh", "--squeeze", "0.5,-0.5",
                    "--grid", "3x3", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith(("re_alpha", "#"))]
    assert len(rows) == 2  # one row per squeeze value, base pinned at 0


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pullback", "--family", "su11", "--param", "1.0", "--grid", "2x2",
            "--base-max", "0.6", "--format", "json"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_shape(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["berezin", "gram", "--h", "0.25", "--cutoff", "6",
                    "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "rows", "summary"}
    assert doc["summary"]["pass"] is True
    assert isinstance(doc["summary"]["max_dev"], float)
    assert doc["config"]["cutoff"] == 6


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["pullback", "--family", "nosuch"])
    assert exc.value.code == 2


def test_missing_subcommand_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["sut"])
    assert exc.value.code == 2


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=2x2\ntol=1e-6\nbase_max=1.0\n")
    out = tmp_path / "r.json"
    code = run_cli(["pullback", "--family", "wh", "--config", str(cfg),
                    "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["grid"] == "2x2"
    assert doc["config"]["tol"] == 1e-6
    # explicit flags still beat the file
    code = run_cli(["pullback", "--family", "wh", "--config", str(cfg),
                    "--grid", "3x3", "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["grid"] == "3x3"


def test_config_sets_only_the_subcommands_options(tmp_path):
    cfg = tmp_path / "run.cfg"
    # cutoff belongs to berezin, not to sut, so it is ignored
    cfg.write_text("grid=t:0.5..4:4 s:-2..2:4\ncutoff=6\n# tol=1\n")
    out = tmp_path / "kks.json"
    code = run_cli(["sut", "kks", "--config", str(cfg), "--format", "json",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["grid"] == "['t:0.5..4:4', 's:-2..2:4']"
    assert "cutoff" not in doc["config"] and doc["config"]["tol"] == 1e-12
    assert len(doc["rows"]) == 16
    # a switch is set by true or false
    cfg.write_text("oracle=true\ngrid=2x2\n")
    code = run_cli(["pullback", "--config", str(cfg), "--format", "json",
                    "--out", str(out)])
    assert code == 0
    assert "oracle_dev" in json.loads(out.read_text())["summary"]
    cfg.write_text("oracle=yes\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["pullback", "--config", str(cfg)])
    assert exc.value.code == 2


def test_sut_subcommands(tmp_path):
    for name in ("kks", "charts", "flow", "dirac"):
        out = tmp_path / f"{name}.json"
        code = run_cli(["sut", name, "--grid", "t:0.5..4:4", "s:-2..2:4",
                        "--format", "json", "--out", str(out)])
        assert code == 0, name
        assert json.loads(out.read_text())["summary"]["pass"] is True


def test_sut_flow_summary_is_the_worst_gated_residual(tmp_path):
    out = tmp_path / "f.json"
    for tol, code in ((1e-6, 0), (1e-12, 1)):
        assert run_cli(["sut", "flow", "--tol", str(tol), "--format", "json",
                        "--out", str(out)]) == code
        doc = json.loads(out.read_text())
        worst = max(max(r["resid_flow1"], r["resid_flow2_generator"],
                        abs(r["resid_flow2_stated"] - r["expected_defect"]))
                    for r in doc["rows"])
        assert doc["summary"]["max_dev"] == pytest.approx(worst, rel=1e-11)
        assert 0 < worst < 1e-6


def test_sut_dirac_summary_is_the_worst_gated_residual(tmp_path):
    out = tmp_path / "d.json"
    assert run_cli(["sut", "dirac", "--grid", "t:0.5..4:3", "s:-2..2:3",
                    "--format", "json", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["max_dev"] == max(summary["defect_dev"],
                                     summary["grid_stability"],
                                     summary["potential_residual_log"])
    assert summary["max_dev"] > summary["defect_dev"]


def _readme_commands() -> list[list[str]]:
    """Every ``cohgeom ...`` line of the README's fenced blocks, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line)[1:] for block in text.split("```")[1::2]
            for line in block.splitlines() if line.startswith("cohgeom ")]


def test_readme_commands_exit_zero(capsys):
    commands = _readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_berezin_subcommands(tmp_path):
    cases = (["berezin", "gram", "--h", "0.25,0.45"],
             ["berezin", "kernel", "--h", "0.25", "--cutoff", "12"],
             ["berezin", "symbol", "--h", "0.25", "--cutoff", "12"],
             ["berezin", "star", "--h-seq", "0.2,0.1,0.05", "--cutoff", "10"])
    for args in cases:
        out = tmp_path / "b.json"
        code = run_cli(args + ["--format", "json", "--out", str(out)])
        assert code == 0, args
        assert json.loads(out.read_text())["summary"]["pass"] is True


def test_pullback_oracle_flag(tmp_path):
    out = tmp_path / "o.json"
    code = run_cli(["pullback", "--family", "wh", "--grid", "2x2",
                    "--base-max", "1.0", "--oracle", "--format", "json",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["oracle_dev"] < 1e-6


def test_uncertainty_subcommand(tmp_path):
    out = tmp_path / "u.csv"
    code = run_cli(["uncertainty", "--family", "wh", "--alphas", "1",
                    "--squeeze", "0,0.5", "--out", str(out)])
    assert code == 0
    code = run_cli(["uncertainty", "--family", "su2", "--j", "0.5,1,2",
                    "--out", str(out)])
    assert code == 0


def test_uncertainty_defaults_hold_displaced_squeezed_states():
    assert run_cli(["uncertainty", "--alphas", "1,1j,0.5+0.5j"]) == 0


def test_uncertainty_summary_max_dev_is_the_worst_row(tmp_path):
    # each row's dev is the worse of the RS slack and the matched residual,
    # and the summary's max_dev is the worst row; exact displaced squeezed
    # states pass at N = 64
    out = tmp_path / "u.json"
    assert run_cli(["uncertainty", "--alphas", "1j,0.5", "--N", "64",
                    "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for row in doc["rows"]:
        assert row["dev"] == max(abs(row["slack_rs"]), row["resid_matched"])
    assert doc["summary"]["max_dev"] == max(row["dev"] for row in doc["rows"])
    assert doc["summary"]["pass"] is True


def test_uncertainty_below_the_tail_budget_exits_2(capsys):
    assert run_cli(["uncertainty", "--alphas", "1j", "--squeeze", "0.5",
                    "--N", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cohgeom: TruncationError: ")
    assert len(err.splitlines()) == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cohgeom.cli", "pullback", "--family", "wh",
         "--grid", "2x2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("re_alpha")


def test_report_all_truncation_check_raises(monkeypatch, capsys):
    # the basis-size check must hold under python -O, so it cannot be an assert
    monkeypatch.setattr(cli, "truncation_dim", lambda *a, **k: 10**6)
    assert main(["report-all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cohgeom: TruncationError: ")
    assert len(err.splitlines()) == 1


def test_report_all_same_under_optimize(capsys):
    assert main(["report-all"]) == 0
    plain = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(cohgeom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cohgeom.cli", "report-all"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain


def test_report_all_same_with_cold_and_warm_spectra(capsys):
    # the spin displacement spectra are built on first use and reused after;
    # the pullback cache is cleared so that the second pass displaces again.
    # report-all displaces at the origin only, the spin tangent oracle off it
    from cohgeom import pullback, states

    commands = (["report-all"], ["pullback", "--family", "su2", "--param", "2",
                                 "--squeeze", "0.5", "--oracle"])
    outputs = []
    for clear_spectra in (True, False):
        if clear_spectra:
            states._unit_spectrum.cache_clear()
        pullback._pullback_matrix.cache_clear()
        for argv in commands:
            assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert states._unit_spectrum.cache_info().hits > 0
    assert outputs[0] == outputs[1]


def test_no_spectrum_built_at_import():
    src = os.path.dirname(os.path.dirname(cohgeom.__file__))
    code = ("import cohgeom, cohgeom.cli\n"
            "print(cohgeom.states._unit_spectrum.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_pullback_nan_squeeze_raises_domain_error(capsys):
    # the parser rejects the NaN before StateFamily raises DomainError for it
    with pytest.raises(SystemExit) as exc:
        run_cli(["pullback", "--squeeze", "nan", "--grid", "2x2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "cohgeom pullback: error: argument --squeeze: "
        "not a finite number: 'nan'\n")


@pytest.mark.parametrize("argv, message", [
    (["sut", "charts", "--v0", "0"], "cohgeom: DegenerateOrbit: "),
    (["uncertainty", "--family", "su2", "--j", "0.7"], "cohgeom: InvalidSpin: "),
    (["berezin", "gram", "--h", "2"], "cohgeom: DomainError: "),
    (["sut", "kks", "--grid", "t:0.5..4:4", "t:1..2:3"],
     "cohgeom: DomainError: grid must name both t and s"),
    (["pullback", "--grid", "5"], "error: argument --grid: "),
    (["pullback", "--grid", "0x3"], "error: argument --grid: "),
    (["sut", "kks", "--grid", "t:0.5..4", "s:-2..2:4"], "error: argument --grid: "),
    (["sut", "flow", "--grid", "t:0.5..nan:4", "s:-2..2:4"],
     "error: argument --grid: "),
    (["sut", "dirac", "--grid", "u:0.5..4:4", "s:-2..2:4"],
     "error: argument --grid: "),
    (["pullback", "--config"], "error: argument --config: "),
    (["pullback", "--config", "no-such-dir/run.cfg"], "cannot read --config"),
    (["pullback", "--squeeze", ",", "--oracle"], "error: argument --squeeze: "),
    (["pullback", "--tol", "nan"], "error: argument --tol: "),
    (["pullback", "--base-max", "inf"], "error: argument --base-max: "),
    (["uncertainty", "--alphas", "1,nan+1j"], "error: argument --alphas: "),
    (["berezin", "star", "--h-seq", "0.2,-inf"], "error: argument --h-seq: "),
    (["pullback", "--eps", "0"], "cohgeom: DomainError: tail budget eps"),
    (["pullback", "--eps", "-1"], "cohgeom: DomainError: tail budget eps"),
    (["berezin", "star", "--h-seq", "0.2"],
     "cohgeom: DomainError: the star gate needs two distinct h"),
    (["berezin", "star", "--h-seq", "0.1,0.1"],
     "cohgeom: DomainError: the star gate needs two distinct h"),
    (["sut", "charts", "--v0", "-1"], "cohgeom: DomainError: no grid point"),
    (["sut", "flow", "--grid", "t:-2..-1:3", "s:-1..1:3"],
     "cohgeom: DomainError: no grid point"),
    (["sut", "dirac", "--grid", "t:-2..-1:3", "s:-1..1:3"],
     "cohgeom: DomainError: prequantization chart requires t > 0"),
    (["pullback", "--family", "su11", "--param", "1", "--squeeze", "0,0.5",
      "--grid", "2x2", "--base-max", "0.5"],
     "cohgeom: DomainError: the su11 family has no squeezing"),
    # --hbar is read by no spin row, orbit check or chart
    (["uncertainty", "--family", "su2", "--hbar", "2"],
     "cohgeom: DomainError: --hbar applies to --family wh only"),
    (["sut", "kks", "--hbar", "3"], "error: unrecognized arguments: --hbar 3"),
    (["sut", "charts", "--hbar", "3"], "error: unrecognized arguments: --hbar 3"),
])
@pytest.mark.filterwarnings("error")
def test_error_exit_two_one_line(argv, message, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and message in err


def test_hbar_kept_where_it_is_read(tmp_path):
    assert run_cli(["uncertainty", "--family", "su2", "--hbar", "1",
                    "--out", str(tmp_path / "u.csv")]) == 0
    for name in ("flow", "dirac"):
        assert run_cli(["sut", name, "--hbar", "1", "--grid", "t:0.5..2:3",
                        "s:-1..1:3", "--out", str(tmp_path / f"{name}.csv")]) == 0


def test_report_all_imports_no_scipy():
    # scipy is a test oracle only: the package and report-all run on numpy
    src = os.path.dirname(os.path.dirname(cohgeom.__file__))
    code = ("import sys, contextlib, io\n"
            "import cohgeom.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cohgeom.cli.main(['report-all']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sut_points_off_the_orbit_skipped(tmp_path):
    # t = -1 and t = 0 are off the orbit through v0 = 1; t = 1 remains
    for name in ("charts", "flow"):
        out = tmp_path / f"{name}.json"
        assert run_cli(["sut", name, "--grid", "t:-1..1:3", "s:-1..1:3",
                        "--format", "json", "--out", str(out)]) == 0
        assert {row["t"] for row in json.loads(out.read_text())["rows"]} == {1.0}


def test_error_in_subprocess_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "cohgeom.cli", "sut", "charts", "--v0", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cohgeom: DegenerateOrbit: ")
    assert len(proc.stderr.splitlines()) == 1


def _recorded_svds(monkeypatch) -> list:
    """Empty every constructor cache and the form cache, then record every
    matrix handed to np.linalg.svd."""
    from cohgeom import pullback, states

    for fn in vars(states).values():
        getattr(fn, "cache_clear", lambda: None)()
    pullback._pullback_matrix.cache_clear()
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda M, *a, **k: seen.append(M) or svd(M, *a, **k))
    return seen


def _spin_cases(seen, cases) -> list:
    """The (v, j) of the spin operator e^v Lx - i e^{-v} Ly that each recorded
    matrix is; fails on any other matrix, an oscillator operator included."""
    ops = {(v, j): su2_tilde_minus(spin_matrices(j), v) for (v, j) in cases}
    found = []
    for M in seen:
        match = [key for key, op in ops.items()
                 if op.shape == M.shape and np.array_equal(op, M)]
        assert match, f"SVD of a {M.shape} matrix that is no spin operator"
        found.append(match[0])
    return found


def test_report_all_svds_only_spin_fiducials(monkeypatch, capsys):
    # the squeezed vacuum is built in closed form: the only kernel SVDs are
    # of spin operators, one per distinct (v, j)
    seen = _recorded_svds(monkeypatch)
    assert run_cli(["report-all"]) == 0
    capsys.readouterr()
    cases = {(v, j) for (j, v) in cli.SU2_CASES}
    assert sorted(_spin_cases(seen, cases)) == sorted(cases)


def test_pullback_sweep_svds_no_oscillator_operator(monkeypatch):
    sweep = _bench_module("workloads").WORKLOADS["pullback-sweep"]
    ops = sweep.plan(1)
    spins = [op[1] for op in ops if op[1].family == "su2"]
    cases = {(f.v, f.param) for f in spins} | {(0.0, f.param) for f in spins}
    seen = _recorded_svds(monkeypatch)
    results = sweep.run(ops)
    assert not [r for r in results if isinstance(r, cohgeom.CohgeomError)]
    found = _spin_cases(seen, cases)
    assert seen and len(found) == len(set(found))


def _bench_module(name: str):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tooling_matches_the_package(tmp_path, capsys):
    # the traced benchmark resolves every span name against the package, and
    # the report-all workload checks rows by the registry's names
    spans, workloads = _bench_module("spans"), _bench_module("workloads")
    original = cli.cmd_report_all
    recorder = spans.Recorder().install()
    try:
        assert cli.cmd_report_all is not original
    finally:
        recorder.uninstall()
    assert cli.cmd_report_all is original
    out = tmp_path / "r.json"
    assert main(["report-all", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    names = [row["check"] for row in json.loads(out.read_text())["rows"]]
    assert names == [check[0] for check in cli.CHECKS]
    assert sorted(names) == sorted(workloads.REPORT_TOLERANCES)
