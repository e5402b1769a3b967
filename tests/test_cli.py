import json
import os
import subprocess
import sys

import pytest

import cohgeom
from cohgeom import cli
from cohgeom.cli import main
from cohgeom.errors import TruncationError


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


def test_sut_subcommands(tmp_path):
    for name in ("kks", "charts", "flow", "dirac"):
        out = tmp_path / f"{name}.json"
        code = run_cli(["sut", name, "--grid", "t:0.5..4:4", "s:-2..2:4",
                        "--format", "json", "--out", str(out)])
        assert code == 0, name
        assert json.loads(out.read_text())["summary"]["pass"] is True


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cohgeom.cli", "pullback", "--family", "wh",
         "--grid", "2x2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("re_alpha")


def test_report_all_truncation_check_raises(monkeypatch):
    # the basis-size check must hold under python -O, so it cannot be an assert
    monkeypatch.setattr(cli, "truncation_dim", lambda *a, **k: 10**6)
    with pytest.raises(TruncationError):
        main(["report-all"])


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
