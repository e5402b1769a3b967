"""Steadiness check: do two sets of runs of the same commit agree?

    python3 bench/steady.py [--runs 10] [--workloads report-all,orbit-moments]

Runs the command in BENCHMARK.json ``--runs`` times per set, two sets one
after the other, each run with its own seed (set A seeds 1000+i, set B
2000+i).  For every workload and end-to-end metric it reports each set's
median and spread (the distance between the first and third quartile as a
share of the median) and whether

* each spread is within the metric's bound (not required of ``setup_s``),
* set B's median is within the bound of set A's, in either direction,
* the share of failed operations is identical in both sets.

It also marks the spreads that stay within a third of the bound.
Exit status 0 when every workload is steady.  The figures are written to
``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 4)")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("quartiles need at least 4 runs per set")

    report, steady = {}, True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for name, base in (("A", 1000), ("B", 2000)):
            for i in range(args.runs):
                res = one_run(bench, workload, base + i)
                sets[name].append(res)
                print(f"{workload} set {name} seed {base + i}: " + " ".join(
                    f"{k}={m['value']:.4f}" for k, m in res["metrics"].items()), flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            row = {"median_a": med_a, "median_b": med_b,
                   "spread_a": spread(a), "spread_b": spread(b),
                   "shift": med_b / med_a - 1.0, "bound": bound}
            widest = max(row["spread_a"], row["spread_b"])
            row["ok"] = abs(row["shift"]) <= bound and (name == "setup_s" or widest <= bound)
            row["within_third"] = widest <= bound / 3
            rows[name] = row
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_failed = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for v in sets.values() for r in v)
        ok = same_failed and correct and all(r["ok"] for r in rows.values())
        steady = steady and ok
        report[workload] = {"metrics": rows, "failed_share": sorted(shares["A"] | shares["B"]),
                            "correct": correct, "steady": ok}
        print(f"\n{workload}: {'steady' if ok else 'NOT steady'}"
              f" (correct={correct}, failed shares {sorted(shares['A'] | shares['B'])})")
        for name, r in rows.items():
            print(f"  {name:12s} median A {r['median_a']:.4f} B {r['median_b']:.4f}"
                  f"  shift {r['shift']:+.3f}  spread A {r['spread_a']:.3f}"
                  f" B {r['spread_b']:.3f}  bound {r['bound']}  {'ok' if r['ok'] else 'FAIL'}"
                  f"{'' if r['within_third'] else ' (spread above a third of the bound)'}")
        print(flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
