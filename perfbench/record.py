#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the spread of each metric.

    python3 perfbench/record.py --seeds 1-10 [--workloads hardness,sweep] \
        [--trace 0] [-o perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
from the root of the checkout, for the ``run_seconds`` of BENCHMARK.json.
For every metric it records the values, their median, quartiles and the
quartile distance as a share of the median (``statistics.quantiles(values,
n=4)``), together with the machine and the Python version, and does the
same for the unscaled set-up and pass times.
A seed may repeat (``--seeds 3,3,3``) to measure the host's own noise.
Without ``-o`` the record is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        low, high = spec.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
        },
        "seconds": BENCHMARK["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.trace)
            runs.append(result)
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            if bounds.get(name) is not None:
                metrics[name]["bound"] = bounds[name]
        record["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "passes": [r["detail"]["passes"] for r in runs],
            "op_tail_percentile": runs[0]["detail"]["op_tail_percentile"],
            "op_tail_samples": runs[0]["detail"]["op_tail_samples"],
            "inputs": [r["detail"]["inputs"] for r in runs],
            "metrics": metrics,
            "raw": {
                name: summarise([r["detail"][name] for r in runs])
                for name in ("raw_setup_s", "raw_wall_s")
                if name in runs[0]["detail"]
            },
        }
    text = json.dumps(record, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
