import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cohgeom
from cohgeom import cli
from cohgeom.cli import main
from cohgeom.errors import worst
from cohgeom.states import kernel_vector


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
                    "--out", str(out)])
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


def test_uncertainty_computes_each_saturation_term_once_per_row(monkeypatch, capsys):
    # the four default rows need one RS report and two residuals (matched
    # and lambda = 1) each; the row's dev reuses the first two
    calls = {"rs_report": 0, "min_uncertainty_residual": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    assert run_cli(["uncertainty"]) == 0
    capsys.readouterr()
    assert calls == {"rs_report": 4, "min_uncertainty_residual": 8}


@pytest.mark.parametrize("argv", [
    # the orbit form's products stay of size 1/t, so neither underflows
    "sut kks --grid t:3e161..3e161:1 s:0..1:1",
    "sut kks --grid t:1e200..1e200:1 s:0..1:1",
    # the chart step is relative to a = sqrt(v0/t), here 3.2e-6 and 3.2e-7
    "sut charts --grid t:1e11..1e11:1 s:0..1:2",
    "sut charts --grid t:1e13..1e13:1 s:0..1:2",
    # the round trip is measured at the point's scale, where one ulp of t
    # is round-off, and holds on the orbit with v0 < 0
    "sut charts --grid t:0.1..1e9:9 s:-3..3:4",
    "sut charts --v0 -2 --grid t:-5..-0.5:6 s:-2..2:5",
])
def test_orbit_checks_hold_at_large_t(argv, tmp_path):
    out = tmp_path / "o.json"
    assert run_cli(argv.split() + ["--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_dev"] < 1e-9


def test_chart_round_trip_off_by_1e9_fails_the_default_grid(monkeypatch, capsys):
    # scaling the round trip by the point's size keeps the gate tight: an
    # inverse off by 1e-9 in s or in t fails the default grid
    real = cli.sut.phi_inv
    for shift in ((1e-9, 0.0), (0.0, 1e-9)):
        monkeypatch.setattr(cli.sut, "phi_inv", lambda orbit, g, d=shift: cli.sut.OrbitPoint(
            real(orbit, g).s + d[0], real(orbit, g).t + d[1]))
        assert run_cli(["sut", "charts"]) == 1
        assert "pass=false" in capsys.readouterr().out


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


def test_report_all_truncation_check_raises(monkeypatch, capsys, request):
    # a basis too small for the family's tail budget fails in the state's
    # tail check, which holds under python -O, and exits 2 with one line;
    # the sizer is made to report N = 4, so the frames keep 8 levels of its
    # true amplitudes; the pullback cache is emptied on both sides so no
    # small basis leaks
    from cohgeom import pullback

    pullback._pullback_matrix.cache_clear()
    request.addfinalizer(pullback._pullback_matrix.cache_clear)
    sized = pullback._sized_amplitudes
    monkeypatch.setattr(pullback, "_sized_amplitudes",
                        lambda *a: (sized(*a)[0], [4] * len(a[0])))
    assert main(["report-all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cohgeom: TruncationError: tail mass ")
    assert len(err.splitlines()) == 1


def test_one_gate_reads_the_tolerance_at_run_time(monkeypatch, capsys):
    # wh-squeezed-form reads 2.7e-13 and pullback --squeeze 0.5 2.2e-14;
    # FORM_TOL is read when the check runs, by the row and by the option's
    # default alike
    monkeypatch.setattr(cli, "FORM_TOL", 1e-14)
    assert main(["report-all"]) == 1
    assert "FAIL wh-squeezed-form " in capsys.readouterr().out
    assert main(["pullback", "--squeeze", "0.5"]) == 1
    assert "pass=false" in capsys.readouterr().out
    monkeypatch.undo()
    assert main(["report-all"]) == 0
    assert "PASS wh-squeezed-form " in capsys.readouterr().out
    assert main(["pullback", "--squeeze", "0.5"]) == 0
    assert "pass=true" in capsys.readouterr().out


def test_check_bounds_decide_pass():
    # upper bounds and floors are strict, and a NaN value meets neither
    Check = cli.Check
    assert Check(1.0, ((1.0, 2.0),), ((3.0, 2.0),)).passed
    assert not Check(0.0, ((2.0, 2.0),)).passed
    assert not Check(0.0, above=((2.0, 2.0),)).passed
    assert not Check(0.0, ((float("nan"), 1.0),)).passed
    assert not Check(0.0, above=((float("nan"), 1.0),)).passed
    assert cli.under(0.5, 1.0) == Check(0.5, ((0.5, 1.0),))


def test_worst_propagates_nan_wherever_it_sits():
    nan = float("nan")
    for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan], [nan]):
        assert np.isnan(worst(values))
        assert np.isnan(worst(iter(values)))
        assert np.isnan(worst(np.array(values)))
    # Python's max keeps a NaN only when it comes first
    assert max([1.0, nan]) == 1.0
    with pytest.raises(ValueError):
        worst([])


@given(st.lists(st.floats(allow_nan=False), min_size=1))
def test_worst_equals_max_without_nan(values):
    assert worst(values) == max(values)
    assert worst(np.array(values)) == max(values)


def test_sut_flow_nan_residual_fails(capsys):
    # hbar = 1e308 makes the second flows overflow: their residuals read NaN,
    # which fails the gate instead of being dropped by the fold
    assert main(["sut", "flow", "--hbar", "1e308"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "# summary: max_dev=nan pass=false"


# the overflow of the commutator's arrays at this hbar still warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sut_dirac_nan_residual_fails(capsys):
    assert main(["sut", "dirac", "--hbar", "1e308", "--format", "json"]) == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["pass"] is False
    for key in ("max_dev", "defect_dev", "grid_stability"):
        assert np.isnan(summary[key])


def test_pullback_oracle_covers_every_squeeze(tmp_path):
    # the oracle is the worst over all squeeze values, in either order
    out = tmp_path / "o.json"
    devs = []
    for squeeze in ("0,0.5", "0.5,0"):
        assert run_cli(["pullback", "--squeeze", squeeze, "--grid", "2x2",
                        "--oracle", "--format", "json", "--out", str(out)]) == 0
        devs.append(json.loads(out.read_text())["summary"]["oracle_dev"])
    assert devs[0] == devs[1]


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


def test_pullback_dev_off_the_squeezed_origin_is_unsupported():
    # a squeezed family carries a closed form at the origin alone: a grid
    # with any other point is refused with a typed error, not a TypeError
    fam = cohgeom.StateFamily("wh", v=0.5)
    with pytest.raises(cohgeom.UnsupportedBasePoint, match="at 0 only"):
        cli.pullback_dev(fam, [0j, 0.3])
    assert cli.pullback_dev(fam, [0j]) < 1e-8


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
     "cohgeom: DomainError: --hbar is not read by --family su2"),
    (["sut", "kks", "--hbar", "3"], "error: unrecognized arguments: --hbar 3"),
    (["sut", "charts", "--hbar", "3"], "error: unrecognized arguments: --hbar 3"),
    # --h and --points are read by no star row, --points by no gram row;
    # no option is matched by a prefix, so --h is not taken for --h-seq
    (["berezin", "star", "--h", "0.9", "--points", "5j"],
     "error: unrecognized arguments: --h 0.9 --points 5j"),
    (["berezin", "star", "--h", "0.2,0.1"], "error: unrecognized arguments: --h "),
    (["berezin", "gram", "--points", "5j"],
     "error: unrecognized arguments: --points 5j"),
    # the chain of a half-integer spin does not close when squeezed
    (["pullback", "--family", "su2", "--param", "7.5", "--squeeze", "0.1"],
     "cohgeom: KernelError: no kernel at half-integer j = 7.5"),
    # hbar is finite and positive wherever it is read
    (["uncertainty", "--hbar", "-1"], "error: argument --hbar: not a positive number"),
    (["uncertainty", "--hbar", "0"], "error: argument --hbar: not a positive number"),
    (["sut", "dirac", "--hbar", "0"], "error: argument --hbar: not a positive number"),
    (["sut", "flow", "--hbar", "0"], "error: argument --hbar: not a positive number"),
    (["sut", "flow", "--hbar", "-1"], "error: argument --hbar: not a positive number"),
    (["sut", "dirac", "--hbar", "inf"], "error: argument --hbar: not a finite number"),
    # an option that the chosen family never reads
    (["uncertainty", "--family", "su2", "--N", "5"],
     "cohgeom: DomainError: --N is not read by --family su2"),
    (["uncertainty", "--family", "su2", "--squeeze", "0.7"],
     "cohgeom: DomainError: --squeeze is not read by --family su2"),
    (["uncertainty", "--family", "su2", "--alphas", "3"],
     "cohgeom: DomainError: --alphas is not read by --family su2"),
    (["uncertainty", "--family", "wh", "--j", "7"],
     "cohgeom: DomainError: --j is not read by --family wh"),
    (["pullback", "--family", "wh", "--param", "3"],
     "cohgeom: DomainError: param applies to family su2 and su11 only"),
    # a spin too large to allocate: 2j + 1 = 2e17 levels ask for 1.4 EiB,
    # beyond any virtual address space, so the allocation fails at once
    (["uncertainty", "--family", "su2", "--j", "1e17"], "cohgeom: MemoryError: "),
    (["pullback", "--family", "su2", "--param", "1e17"], "cohgeom: MemoryError: "),
    # a spin state is sized from j, and a squeezed family is claimed at the
    # origin alone, so neither reads these
    (["pullback", "--family", "su2", "--param", "1", "--eps", "1e-3"],
     "cohgeom: DomainError: --eps is not read by --family su2"),
    (["pullback", "--family", "su2", "--param", "1", "--grid", "3x3"],
     "cohgeom: DomainError: --grid is not read by a squeezed family"),
    (["pullback", "--squeeze", "0.5,-0.5", "--grid", "3x3"],
     "cohgeom: DomainError: --grid is not read by a squeezed family"),
    (["pullback", "--squeeze", "0.5", "--base-max", "1"],
     "cohgeom: DomainError: --base-max is not read by a squeezed family"),
    # an unwritable report path is a usage error too
    (["berezin", "gram", "--out", "no-such-dir/r.csv"],
     "cohgeom: error: cannot write --out no-such-dir/r.csv: No such file or directory"),
    (["berezin", "gram", "--out", "."],
     "cohgeom: error: cannot write --out .: Is a directory"),
    # the basis size is checked before any matrix of that size is built
    (["berezin", "symbol", "--cutoff", "0"],
     "cohgeom: DomainError: cutoff must be at least 1"),
    # inputs whose arithmetic overflows are rejected before it runs: 2j
    # overflows, |alpha|^2 overflows, and sqrt(v0/t) of the chart phi
    (["uncertainty", "--family", "su2", "--j", "1e308"], "cohgeom: InvalidSpin: "),
    (["pullback", "--base-max", "1e308"],
     "cohgeom: DomainError: |alpha|^2 overflows at alpha = "),
    (["pullback", "--base-max=-1e308"],
     "cohgeom: DomainError: |alpha|^2 overflows at alpha = "),
    (["pullback", "--base-max", "1e200"],
     "cohgeom: DomainError: |alpha|^2 overflows at alpha = "),
    (["uncertainty", "--alphas", "1e308j"],
     "cohgeom: DomainError: |alpha|^2 overflows at alpha = 1e+308j"),
    (["sut", "charts", "--v0", "1e308"],
     "cohgeom: DomainError: phi has no finite a, b at t = 0.5 on v0 = 1e+308"),
    # a finite 2j whose basis numpy cannot size, b = (u0 - s) / sqrt(v0 t) of
    # the chart phi, and a range whose span hi - lo overflows
    (["uncertainty", "--family", "su2", "--j", "1e200"],
     "cohgeom: InvalidSpin: j must be a positive half-integer that numpy can size"),
    (["pullback", "--family", "su2", "--param", "1e200"],
     "cohgeom: InvalidSpin: j must be a positive half-integer that numpy can size"),
    (["sut", "charts", "--u0", "1e300", "--grid", "t:1e-300..1e-300:1", "s:0..0:1"],
     "cohgeom: DomainError: phi has no finite a, b at t = 1e-300 on v0 = 1.0"),
    (["sut", "kks", "--grid", "t:-1e308..1e308:3", "s:0..1:1"],
     "bad range spec 't:-1e308..1e308:3': expected t:lo..hi:count or s:lo..hi:count "
     "with a finite hi - lo"),
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


def test_pullback_options_kept_where_they_are_read(tmp_path):
    # the defaults pass wherever the option is unread, and a grid is read as
    # soon as one row is unsqueezed
    for argv in (["--family", "su2", "--param", "1", "--eps", "1e-12",
                  "--grid", "5x5", "--base-max", "2"],
                 ["--squeeze", "0.5", "--grid", "5x5", "--base-max", "2.0"],
                 ["--squeeze", "0,0.5", "--grid", "2x2", "--base-max", "1"],
                 ["--family", "su11", "--param", "1", "--eps", "1e-10",
                  "--grid", "2x2", "--base-max", "0.5"]):
        assert run_cli(["pullback", *argv, "--out", str(tmp_path / "p.csv")]) == 0


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


_QUIET_WORKERS = r"""
import glob, math, os, time
from cohgeom import cli, pullback, uncertainty as un

def worker_ticks():
    # user + system clock ticks of every thread but the main one
    total = 0
    for path in glob.glob("/proc/self/task/*/stat"):
        if int(path.split("/")[-2]) != os.getpid():
            with open(path) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total

# threads started at import may spin a while before they sleep
settled, last = 0, worker_ticks()
for _ in range(100):
    time.sleep(0.05)
    now = worker_ticks()
    settled, last = (settled + 1 if now == last else 0), now
    if settled == 4:
        break
else:
    # still spinning after 5 s: the start-up spin would be counted
    print("unsettled")
    raise SystemExit(0)
before = worker_ticks()
if not all(run().passed for _, run in cli.CHECKS):
    raise SystemExit("a report-all check failed")
for N in (48, 64, 96):
    q, p = un.quadrature_pair(N)
    for v in (0.0, 0.5, -0.5):
        fam = pullback.StateFamily("wh", v=v, trunc=N)
        psi = pullback.family_state(fam, 0.6 + 0.3j).normalized()
        un.moments(q, p, psi)
        un.rs_report(q, p, psi)
        un.min_uncertainty_residual(q, p, math.exp(v), psi)
        un.min_uncertainty_residual(q, p, 1.0, psi)
print(len(glob.glob("/proc/self/task/*")), worker_ticks() - before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="per-thread CPU times are read from /proc")
def test_report_all_and_uncertainty_sweep_leave_blas_workers_idle():
    # no benchmarked product hands work to a second BLAS thread, which would
    # then spin on a core; the BLAS library keeps its default thread count
    src = os.path.dirname(os.path.dirname(cohgeom.__file__))
    proc = subprocess.run([sys.executable, "-c", _QUIET_WORKERS],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "unsettled\n":
        pytest.skip("the BLAS workers did not go idle within 5 s of start-up")
    threads, ticks = map(int, proc.stdout.split())
    assert ticks == 0, f"{ticks} clock ticks on the other {threads - 1} threads"


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
    """Empty every constructor, form and quadrature cache, then record the
    compute_uv flag of every np.linalg.svd call."""
    from cohgeom import berezin, pullback, states

    for module in (states, pullback, berezin):
        for fn in vars(module).values():
            getattr(fn, "cache_clear", lambda: None)()
    seen = []
    svd = np.linalg.svd

    def recording(M, full_matrices=True, compute_uv=True, hermitian=False):
        seen.append(compute_uv)
        return svd(M, full_matrices, compute_uv, hermitian)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def test_report_all_svds_no_singular_vectors(monkeypatch, capsys):
    # every fiducial is a closed form; the emptied quadrature cache makes
    # the Gauss-Jacobi rule run its singular-value-only SVD
    seen = _recorded_svds(monkeypatch)
    assert run_cli(["report-all"]) == 0
    capsys.readouterr()
    assert seen and not any(seen)


def test_pullback_sweep_svds_no_singular_vectors(monkeypatch):
    sweep = _bench_module("workloads").WORKLOADS["pullback-sweep"]
    ops = sweep.plan(1)
    seen = _recorded_svds(monkeypatch)
    results = sweep.run(ops)
    assert not [r for r in results if isinstance(r, cohgeom.CohgeomError)]
    assert not any(seen)
    # the recorder sees the kernel oracle's SVD
    kernel_vector(np.diag([1.0, 0.0]))
    assert seen[-1] is True


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
    assert names == [name for name, _ in cli.CHECKS]
    assert sorted(names) == sorted(workloads.REPORT_TOLERANCES)


# ---------------------------------------------------------------------------
# the parser: main builds the chain of the command it runs, or every command

_LEAVES = [["pullback"], ["uncertainty"], ["report-all"],
           *(["sut", leaf] for leaf in ("kks", "charts", "flow", "dirac")),
           *(["berezin", leaf] for leaf in ("gram", "kernel", "symbol", "star"))]


def _parsers_built(monkeypatch) -> list:
    """Record one entry per ArgumentParser constructed from now on."""
    import argparse

    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def _outcome(parse, argv, capsys):
    """Exit code (None without one), stdout and stderr of ``parse(argv)``."""
    capsys.readouterr()
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv, parsers", [
    (["report-all"], 2),  # cohgeom and report-all
    (["sut", "flow"], 6),  # cohgeom, sut and its four leaves
    (["berezin", "star"], 6),
])
def test_main_builds_only_the_named_commands_parsers(argv, parsers, monkeypatch,
                                                      capsys):
    built = _parsers_built(monkeypatch)
    assert main(argv) == 0
    assert len(built) == parsers
    built.clear()
    cli.build_parser()
    assert len(built) == 14  # every command


@pytest.mark.parametrize("argv", [[], ["-h"], ["nosuch"], ["--format", "json"]])
def test_main_without_a_command_builds_every_parser(argv, monkeypatch, capsys):
    built = _parsers_built(monkeypatch)
    got = _outcome(main, argv, capsys)
    assert len(built) == 14
    assert got == _outcome(cli.build_parser().parse_args, argv, capsys)
    assert got[0] in (0, 2) and (got[1] or got[2])


@pytest.mark.parametrize("path", [[], ["sut"], ["berezin"], *_LEAVES],
                         ids=lambda p: " ".join(p) or "cohgeom")
def test_named_command_parser_matches_the_full_parser(path, capsys):
    # help, usage errors and the parsed defaults of each command are those
    # of the parser of every command
    full, own = cli.build_parser(), cli.build_parser(path[0] if path else None)
    for argv in (path + ["--help"], path + ["--nosuch"], path[:1] + ["nosuch"]):
        want = _outcome(full.parse_args, argv, capsys)
        assert _outcome(main, argv, capsys) == want, argv
        assert _outcome(own.parse_args, argv, capsys) == want, argv
    if path in _LEAVES:
        assert vars(own.parse_args(path)) == vars(full.parse_args(path))
