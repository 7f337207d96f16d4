"""The benchmark's one command.

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1`` runs
one pass over one workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Leaving out ``--workload`` and/or ``--trace`` runs every
missing combination, each in a child process of its own (peak RSS is per
process), then compares the traced and untraced digests.

Exits non-zero when a step raised, an output check failed, or ``src/repro``
is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: sys.path[0] is bench/ itself; the package lives above
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_seconds() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        return int(json.load(fh)["run_seconds"])


def host_fingerprint() -> Dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def print_list() -> None:
    from bench import metrics
    from bench.workloads import WORKLOADS

    print("end-to-end metrics (name, unit, better, bound):")
    for name, unit, better, bound in metrics.END_TO_END:
        print(f"  {name:<44} {unit:<10} {better:<7} {bound}")
    print("per-layer metrics (name, unit, better):")
    for name, unit, better in metrics.per_layer():
        print(f"  {name:<44} {unit:<10} {better}")
    print("workloads:")
    for w in WORKLOADS:
        print(f"  {w.name}: {w.why}")
        print(f"    pins: {json.dumps(w.pins())}")


def run_pass(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process; prints the contract line."""
    from bench import measure, metrics
    from bench.workloads import BY_NAME

    workload = BY_NAME[args.workload]
    out_dir = pathlib.Path(args.out)
    try:
        if args.trace:
            record = measure.run_traced(
                workload,
                args.seed,
                args.seconds,
                args.steps,
                out_dir / f"{workload.name}.trace.json",
            )
            units = {name: unit for name, unit, _ in metrics.per_layer()}
        else:
            record = measure.run_untraced(
                workload, args.seed, args.seconds, args.steps
            )
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    except measure.SetupFailed as exc:
        print(f"{workload.name}: nothing to measure: {exc}", file=sys.stderr)
        return 1
    record.update(
        seed=args.seed,
        trace=args.trace,
        seconds=args.seconds,
        steps=args.steps,
        pins=workload.pins(),
        host=host_fingerprint(),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload.name}.trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"== {workload.name}  seed={args.seed}  trace={args.trace}  "
          f"steps={record['n_steps']}"
          + (f"  (--steps {args.steps})" if args.steps is not None else ""))
    for name, unit in units.items():
        value = record["metrics"][name]
        if value is None:
            shown = "null (target unresolved)"
        else:
            shown = str(int(value)) if value == int(value) else f"{value:.6g}"
        print(f"  {name:<44} {shown} {unit}")
    for name, value in record["info"].items():
        print(f"  ({name}: {value})")
    print(f"  fail_share {record['fail_share']:.4f} "
          f"({record['failed']} failed of {record['attempted']} steps)")
    print(f"  digest after {measure.WARMUP_STEPS}+{measure.DIGEST_AFTER} steps: "
          f"{record['digest']}")
    print("  first policy losses: "
          + " ".join(f"{loss:.6f}" for loss in record["policy_losses"]))
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    # the driver reads numbers: an unresolved target's metrics print as 0
    # here and as null in the record; trace.unresolved_targets says which
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name] or 0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, workloads: List[str], passes: List[int]) -> int:
    """Every requested (workload, pass) in a child each, then the digests."""
    status = 0
    for name in workloads:
        for trace in passes:
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--trace", str(trace),
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--out", args.out,
            ]
            if args.steps is not None:
                command += ["--steps", str(args.steps)]
            status |= subprocess.run(command).returncode
        if passes == [0, 1]:
            digests = []
            for trace in passes:
                path = pathlib.Path(args.out) / f"{name}.trace{trace}.json"
                if path.exists():
                    with open(path) as fh:
                        digests.append(json.load(fh)["digest"])
            same = len(digests) == 2 and digests[0] == digests[1]
            print(f"== {name}: traced and untraced digests "
                  + ("agree" if same else f"DIFFER: {digests}"), flush=True)
            status |= not same
    return int(bool(status))


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads: the run is one closed loop
    for key in THREAD_ENV:
        os.environ[key] = "1"
    from bench.workloads import BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the prompt dataset only (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--steps", type=int, default=None,
                        help="time exactly N steps instead (local iteration; "
                             "recorded in the output)")
    parser.add_argument("--out", default=str(ROOT / "bench" / "out"))
    parser.add_argument("--list", action="store_true",
                        help="print every metric and workload, then exit")
    args = parser.parse_args(argv)
    if args.list:
        print_list()
        return 0
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.workload is not None and args.trace is not None:
        return run_pass(args)
    workloads = [args.workload] if args.workload else list(BY_NAME)
    passes = [args.trace] if args.trace is not None else [0, 1]
    return run_all(args, workloads, passes)


if __name__ == "__main__":
    sys.exit(main())
