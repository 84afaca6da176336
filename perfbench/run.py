"""Benchmark of bhht: the catalogue, generated and mirror workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload generated --seed 1 --print-inputs

A run makes PASSES passes over the workload, each in a child process of its
own (workload.py) with a fixed hash seed and one BLAS thread, and takes each
operation's median time over the passes; SETUP_SAMPLES more children only
set up.  Times are scaled to a fixed machine speed (workload.speed_probe).
A traced run makes one pass.  The last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  See
README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["catalogue", "generated", "mirror"]
# The median of four passes in fresh processes repeats from run to run
# where one timing does not, and no in-process cache spans two passes.
PASSES = 4
SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, extra=()):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("workload process exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    """One workload run; returns the result object."""
    passes = [run_child(args) for _ in range(1 if args.trace else PASSES)]
    result = {"correct": True, "attempted": 0, "failed": 0}
    for one in passes:
        for message in one["errors"] + one["check_failures"]:
            print(message, file=sys.stderr)
        result["correct"] = result["correct"] and not one["check_failures"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
    op_s = [statistics.median(times) for times in zip(*(one["op_s"] for one in passes))]
    if args.trace:
        metrics = dict(passes[0]["trace"], **{"trace.wall_s": sum(op_s)})
        result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
        return result
    setups = [run_child(args, ["--setup-only"]) for _ in range(SETUP_SAMPLES)] + passes
    result["metrics"] = {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "wall_s": {"value": sum(op_s), "unit": "s"},
        "verdict_p50_s": {"value": statistics.median(op_s), "unit": "s"},
        "peak_rss_mib": {"value": max(one["peak_rss_mib"] for one in passes), "unit": "MiB"},
    }
    return result


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--print-inputs", action="store_true",
                        help="print the workload's inputs as fixture text and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bhht" / "__init__.py").is_file():
        print("error: no bhht sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.print_inputs:
        sys.path.insert(0, str(HERE))
        from workload import build_inputs

        names = WORKLOADS if args.workload == "all" else [args.workload]
        for name in names:
            for item in build_inputs(name, args.seed, args.seconds):
                print(item.fixture_text())
        return 0
    if args.workload != "all":
        print(json.dumps(measure(args)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args.workload = name
        result = measure(args)
        print(json.dumps(dict(result, workload=name)))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
