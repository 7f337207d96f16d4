"""A/A harness: is the benchmark steady enough for its own bounds?

Runs the benchmark's untraced pass ``2 x N`` times on each workload — two
sets A and B, alternating A1 B1 A2 B2 ..., run ``i`` of either set with seed
``first_seed + i`` — the way the driver accepts a benchmark.  Per end-to-end
metric it prints each set's median and quartiles, the spread (distance
between the quartiles as a share of the median) and whether set B's median
is worse than set A's by more than the metric's bound.  Same code, same
seeds: every digest and policy loss of run ``Ai`` must equal run ``Bi``'s.

Its output on the commit that defined the benchmark is
``bench/AA_baseline.txt``, the evidence for the bounds in ``BENCHMARK.json``.
It takes no ``--steps``: a shortened run is not evidence.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One untraced run in a child process; its contract line plus exact outputs."""
    out_dir = ROOT / "bench" / "out" / "repeat"
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--out", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(out_dir / f"{workload}.trace0.json") as fh:
        record = json.load(fh)
    result["exact"] = (record["digest"], record["policy_losses"], result["failed"])
    return result


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: Optional[List[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="runs per set (default 5)")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in manifest["workloads"]])
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("-n must be at least 2 (quartiles need two runs)")
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"]

    ok = True
    print(f"A/A: 2 x {args.n} untraced runs per workload, {seconds} s each, "
          f"seeds {args.first_seed}..{args.first_seed + args.n - 1}")
    for workload in workloads:
        sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
        for i in range(args.n):
            for label in ("A", "B"):
                sets[label].append(
                    run_once(manifest["command"], workload, args.first_seed + i, seconds)
                )
        exact_equal = all(
            a["exact"] == b["exact"] for a, b in zip(sets["A"], sets["B"])
        )
        failed = sum(run["failed"] for runs in sets.values() for run in runs)
        print(f"\n{workload}: exact outputs of Ai and Bi "
              f"{'identical' if exact_equal else 'DIFFER'}; {failed} failed steps")
        ok &= exact_equal and failed == 0
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {
                label: summarise([run["metrics"][name]["value"] for run in runs])
                for label, runs in sets.items()
            }
            a, b = stats["A"]["median"], stats["B"]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            # the driver exempts setup_s from the spread rule, not the median rule
            steady = name == "setup_s" or max(
                s["spread"] for s in stats.values()
            ) <= bound
            agree = worse <= bound
            ok &= steady and agree
            for label, s in stats.items():
                print(f"  {name:<14} {label}: median {s['median']:.6g} "
                      f"[{s['q1']:.6g}, {s['q3']:.6g}] {metric['unit']}  "
                      f"spread {s['spread']:.4f}")
            print(f"  {name:<14} B worse than A by {worse:+.4f} of A; bound {bound}: "
                  f"{'ok' if steady and agree else 'OUTSIDE'}"
                  + ("" if steady else " (spread above bound)"))
    print("\nA/A " + ("passed: both sets agree within every bound"
                      if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
