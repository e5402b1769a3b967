"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seed S --seconds T [--trace 0|1] [--out FILE]

Each pair runs the benchmark command of ``BENCHMARK.json`` (``python3
bench/run.py --workload W --seed S --seconds T --trace 0|1``) once in each
checkout, from that checkout's own directory, so each imports its own
``src/``.  Even pairs run the parent first and odd pairs the change, so a
drift of the host's speed falls on both sides alike.  A run that exits
non-zero, or whose last line is not the benchmark's JSON result, stops the
comparison.

For every metric the runs report, the summary gives each side's median and
quartiles, the per-pair values and ratios change / parent with the
ratios' median and quartiles, the pairs the
change won (read lower, or higher where ``BENCHMARK.json`` marks the metric
higher-is-better), the median gain (positive when the change is better) and
the parent's quartile distance q3 - q1.  The whole result, with every run's
``correct``, ``attempted`` and ``failed`` counts, is printed as JSON and
written to ``--out`` when given.  Only the pairs of runs are timed here; the
command is the benchmark's own, unchanged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(tree: Path, command: list, args) -> dict:
    """One benchmark run in ``tree``: its JSON result line."""
    argv = command + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.exit(f"benchmark run in {tree} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return result


def summarize(runs: list, better: dict) -> dict:
    """Per-metric comparison of the paired runs."""
    summary = {}
    for name in runs[0]["parent"]["metrics"]:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        parent, change = (np.array([r[side]["metrics"][name]["value"] for r in runs], float)
                          for side in ("parent", "change"))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = change / parent
        sides = {}
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            sides[side] = {"median": median, "q1": q1, "q3": q3,
                           "values": values.tolist()}
        summary[name] = {
            **sides,
            "better": "higher" if sign < 0 else "lower",
            "pairs": len(runs),
            "ratios": ratios.tolist(),
            "median_ratio": float(np.median(ratios)),
            "ratio_quartiles": np.percentile(ratios, [25, 75]).tolist(),
            "change_wins": int(np.sum(sign * (parent - change) > 0)),
            "change_loses": int(np.sum(sign * (parent - change) < 0)),
            "median_gain": float(sign * (sides["parent"]["median"]
                                         - sides["change"]["median"])),
            "parent_quartile_distance": float(sides["parent"]["q3"]
                                              - sides["parent"]["q1"]),
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec.get("per_layer", [])}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {side: run_once(trees[side], spec["command"], args) for side in order}
        runs.append({"pair": pair, "first": order[0], **results})
        print(f"pair {pair}: " + ", ".join(
            f"{side} {name}={results[side]['metrics'][name]['value']:.4g}"
            for side in ("parent", "change") for name in ("wall_s", "cpu_s")
            if name in results[side]["metrics"]), file=sys.stderr)
    out = {
        "command": " ".join(spec["command"]) + f" --workload {args.workload} "
                   f"--seed {args.seed} --seconds {args.seconds} --trace {args.trace}",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pairs": args.pairs,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    text = json.dumps(out, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
