"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload for about S seconds as whole repetitions, each in a fresh
interpreter (``bench/child.py``), so that a cache in the program holds only
what one repetition put there.  With ``--trace 0`` it reports the end-to-end
metrics as medians over the repetitions; with ``--trace 1`` every round runs
one untraced and one traced repetition, and the per-layer metrics come from
the spans of the traced ones.  Outputs are checked after each timed interval.
The last line of standard output is the JSON result; a copy with the
environment and every repetition's figures is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

WORKLOADS = ("report-all", "pullback-sweep", "orbit-moments")
ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0  # every child is stopped before the run's 180 s limit


class ChildFailed(RuntimeError):
    pass


# end-to-end metric -> unit; each is the median over the run's repetitions
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def repetition(workload: str, seed: int, spans_path: Path | None,
               deadline: float) -> dict:
    """Run one repetition; traced when ``spans_path`` is given."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), workload, str(seed),
           repr(t0), str(spans_path or "-")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise ChildFailed("a repetition did not finish within the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"repetition exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if spans_path:
        rec["layers"] = spans.layer_metrics(json.loads(spans_path.read_text()))
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cohgeom" / "__init__.py").is_file():
        print(f"bench: no cohgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run stops the running repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    # byte-compile once per checkout; users pay this once, not per run
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    OUT.mkdir(exist_ok=True)

    plain, traced, round_s = [], [], []
    try:
        while True:
            r0 = time.monotonic()
            plain.append(repetition(args.workload, args.seed, None, deadline))
            if args.trace:
                path = OUT / f"spans-{args.workload}-{len(traced)}.json"
                traced.append(repetition(args.workload, args.seed, path, deadline))
            round_s.append(time.monotonic() - r0)
            # start another round only if it is expected to end in time
            if time.monotonic() - start + statistics.median(round_s) > args.seconds:
                break
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    problems = [p for rec in reps for p in rec["problems"]]
    digests = {rec["digest"] for rec in reps}
    if len(digests) > 1:
        problems.append(f"output differs between repetitions: {len(digests)} digests")
    result = {
        "correct": not problems,
        "attempted": sum(rec["attempted"] for rec in reps),
        "failed": sum(rec["failed"] for rec in reps),
    }
    if args.trace:
        metrics = {}
        for name in spans.METRICS:
            values = [rec["layers"][name] for rec in traced]
            same = len(set(values)) == 1  # keeps a count whole
            metrics[name] = {"value": values[0] if same else statistics.median(values),
                             "unit": spans.unit(name)}
            if name.endswith(".calls") and not same:
                print(f"note: {name} differs between traced repetitions: {values}")
        untraced = statistics.median(r["wall_s"] for r in plain)
        notes = {"trace_overhead_s": statistics.median(r["wall_s"] for r in traced) - untraced,
                 "untraced_wall_s": untraced}
    else:
        metrics = {name: {"value": statistics.median(rec[name] for rec in plain), "unit": u}
                   for name, u in END_TO_END.items()}
        notes = {}
    result["metrics"] = metrics

    env = plain[0]["env"]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "result": result, "notes": notes,
                    "repetitions": [{k: v for k, v in rec.items() if k != "env"}
                                    for rec in reps]}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} untraced"
          + (f" and {len(traced)} traced" if args.trace else "")
          + " repetitions, each in a fresh interpreter")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"{key} = {value:.6g} s")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {str(result['correct']).lower()}")
    for p in problems[:20]:
        print("problem: " + p)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
