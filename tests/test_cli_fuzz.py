"""Derandomized fuzz of ``cohgeom.cli.main`` over its ten leaf commands.

Each option the command owns is left out or takes a token from a typed
pool: finite, huge, tiny, NaN or infinite, negative and malformed.  Whatever
the input, the command exits 0, 1 or 2, never with a traceback; exit 2
writes one stderr line from the package or its parser, and exit 0 reports no
NaN in any row.  Sizes stay small: at most 256 oscillator levels, a Berezin
cutoff of at most 40, at most 8 grid points per axis and a finite j of at
most 20; 1e308 goes only where it is rejected or read as a scalar, never as
a size.  numpy still warns on overflow at a few grid, point and hbar
extremes, so warnings are ignored here rather than asserted on.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohgeom.cli import main

HUGE = ["1e308", "1e200"]
TINY = ["1e-300", "5e-324", "-1e-300"]
NONFINITE = ["nan", "inf", "-inf"]
NEGATIVE = ["-1", "-0.7", "-1e308", "-1e200"]
MALFORMED = ["", "abc", "1..2", "1e", "0x10", ","]
EXTREME = HUGE + TINY + NONFINITE + NEGATIVE


def _typed(domain, extreme=EXTREME):
    """A token of the option's own type: in its domain seven times in ten,
    extreme (huge, tiny, non-finite or negative) twice, malformed once."""
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(
        domain if i < 7 else extreme if i < 9 else MALFORMED))


def _list(token):
    """A comma list of one or two tokens."""
    return st.lists(token, min_size=1, max_size=2).map(",".join)


REAL = _typed(["0", "1", "0.5", "1.5", "3", "1e-8", "1e-12"])
SQUEEZE = _typed(["0", "0.5", "-1", "1", "2", "-2", "2.5"])
# a finite j is at most 20: 1e308 is rejected, a larger finite j is a size
SPIN = _typed(["0.5", "1", "2", "7.5", "20", "0.7", "0", "0.75", "1.5"],
              ["1e308", "-1", "nan", "inf", "1e-300"])
COMPLEX = _typed(["1", "0.5+0.5j", "1j", "2j", "1+1j", "-0.3+0.2j", "0.2j", "3"],
                 ["1e308j", "-1e200+1j", "1e308+1e308j", "1e-300j", "nanj", "infj",
                  "-1", "-1j"])
STEP = _typed(["0.25", "0.45", "0.1", "0.05", "0.2", "0.3"],
              ["2", "0", "-1", "1e308", "1e-300", "5e-324", "nan", "1"])
# sizes: at most 256 levels, a cutoff of at most 40 and 8 grid points per axis
LEVELS = _typed(["2", "8", "64", "96", "256"], ["1", "0", "-3", "7.0", "1e308"])
CUTOFF = _typed(["1", "4", "8", "12", "40"], ["0", "-1", "1e308", "2.5"])
COUNT = _typed(["1", "2", "3", "5", "8"], ["0", "-1", "1e308"])
BOUND = _typed(["0.5", "4", "-2", "2", "1", "0", "-1", "14", "1e9", "1e-3"])


def _shape():
    return st.tuples(COUNT, COUNT).map("x".join)


def _range(name):
    """A 't:lo..hi:count' spec; now and then of another name."""
    names = st.integers(0, 9).map(lambda i: name if i else "u")
    return st.builds(lambda n, lo, hi, c: f"{n}:{lo}..{hi}:{c}", names, BOUND, BOUND,
                     COUNT)


def _sut_grid():
    # t then s, as the commands expect, or swapped, or t twice
    return st.one_of(st.tuples(_range("t"), _range("s")),
                     st.tuples(_range("s"), _range("t")),
                     st.tuples(_range("t"), _range("t")))


OPTIONS = {
    ("pullback",): {
        "family": st.sampled_from(["wh", "su2", "su11"]),
        "squeeze": _list(SQUEEZE), "param": SPIN, "grid": _shape(), "base-max": REAL,
        "tol": REAL,
        "eps": _typed(["1e-12", "1e-6", "1e-3"], ["0", "-1", "1e-300", "1e308", "nan"]),
        "oracle": st.just(None)},
    ("uncertainty",): {
        "family": st.sampled_from(["wh", "su2"]), "alphas": _list(COMPLEX),
        "squeeze": _list(SQUEEZE), "j": _list(SPIN), "N": LEVELS, "hbar": REAL,
        "tol": REAL},
    ("sut", "kks"): {"grid": _sut_grid(), "tol": REAL},
    ("sut", "charts"): {"grid": _sut_grid(), "tol": REAL, "u0": REAL, "v0": REAL},
    ("sut", "flow"): {"grid": _sut_grid(), "tol": REAL, "hbar": REAL},
    ("sut", "dirac"): {"grid": _sut_grid(), "tol": REAL, "hbar": REAL},
    ("berezin", "gram"): {"cutoff": CUTOFF, "h": _list(STEP), "tol": REAL},
    ("berezin", "kernel"): {"cutoff": CUTOFF, "h": _list(STEP), "tol": REAL,
                            "points": _list(COMPLEX)},
    ("berezin", "symbol"): {"cutoff": CUTOFF, "h": _list(STEP), "tol": REAL,
                            "points": _list(COMPLEX)},
    ("berezin", "star"): {"cutoff": CUTOFF, "point": COMPLEX,
                          "h-seq": st.lists(STEP, min_size=2, max_size=3).map(",".join)},
}


def _flags(name: str, value) -> list:
    if name == "oracle":
        return ["--oracle"]
    if isinstance(value, tuple):  # the two parts of a sut grid
        return ["--grid", *value]
    # --name=value, so a value that starts with '-' still reaches the parser's
    # type check
    return [f"--{name}={value}"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = list(command)
    for name, values in OPTIONS[command].items():
        if draw(st.integers(0, 2)) == 0:  # each option is set one time in three
            argv += _flags(name, draw(values))
    return argv + ["--format", "json"]


def _nan_in(row: dict) -> bool:
    return any(isinstance(v, float) and math.isnan(v) for v in row.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=200)
@given(_argv())
# inputs that once passed on NaN or ended in a traceback
@example(["sut", "flow", "--hbar=1e308", "--format", "json"])
@example(["sut", "dirac", "--hbar=1e308", "--format", "json"])
@example(["uncertainty", "--family=su2", "--j=1e308", "--format", "json"])
@example(["uncertainty", "--alphas=1e308j", "--format", "json"])
@example(["pullback", "--base-max=-1e308", "--format", "json"])
@example(["sut", "charts", "--v0=1e308", "--format", "json"])
def test_cli_fuzz_exits_0_1_or_2_as_promised(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("cohgeom"), (argv, lines)
    else:
        assert err.getvalue() == "", argv
        rows = json.loads(out.getvalue())["rows"]
        assert rows and not (code == 0 and any(map(_nan_in, rows))), argv
