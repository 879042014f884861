#!/usr/bin/env python3
"""Benchmark of the boolsynth library and CLI.

    python3 perfbench/run.py --workload {hardness,witness,synth,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/``;
inputs are generated from ``--seed`` into ``.perfbench-out/``. A pass runs
every op of the workload once. Timed passes repeat until ``--seconds`` have
gone by; each op's outcome is reduced to a fingerprint, and every pass must
reproduce the first. A final untimed pass checks each outcome against its
oracle. Times are rescaled to a nominal host speed (see ``Speed``). The
last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
The line before it gives details: pass and op counts, the tail percentile
and its sample count, and the input properties.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = ("generators", "workloads", "tracer")
WORKLOADS = ("hardness", "witness", "synth", "sweep")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SAMPLE_EVERY = 0.05
REFERENCE_SECONDS = 0.0003


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_setup(name: str, seed: int, work: Path, nets: list, speed: "Speed"):
    """Import the program and the workload code afresh, generate the inputs
    and write them. Returns (workload, raw seconds, rescaled seconds)."""
    for key in list(sys.modules):
        if key == "boolsynth" or key.startswith("boolsynth.") or key in BENCH_MODULES:
            del sys.modules[key]
    gc.collect()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload, raw, scaled = speed.timed(
        lambda: getattr(importlib.import_module("workloads"), name)(seed, work, nets)
    )
    if isinstance(workload, Exception):
        raise workload
    return workload, raw, scaled


def reference_work() -> int:
    """A fixed piece of interpreter work: dict, int and list operations
    like the program's own inner loops."""
    table: dict[int, int] = {}
    items = []
    for i in range(1000):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        if i & 15 == 0:
            items.append(len(table))
    return sum(items)


class Speed:
    """The host's current speed, sampled from a timer signal.

    On a shared host the CPU speed can swing by up to 2x for seconds at a
    time. Every ``SAMPLE_EVERY`` seconds a timer signal times one
    ``reference_work``. An op's time, less the time spent sampling, is
    rescaled to a nominal host on which ``reference_work`` takes
    ``REFERENCE_SECONDS``: by the samples taken during the op, or for a
    shorter op by the last few.
    """

    RECENT = 4

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sampling = 0.0  # seconds spent in samples so far
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def _sample(self) -> None:
        begin = time.perf_counter()
        reference_work()
        spent = time.perf_counter() - begin
        self.samples.append(spent)
        self.sampling += spent

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """(result or raised exception, raw seconds, rescaled seconds)."""
        first, sampling = len(self.samples), self.sampling
        begin = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # recorded as a failed op
            result = exc
        raw = time.perf_counter() - begin - (self.sampling - sampling)
        during = self.samples[first:] or self.samples[-self.RECENT :]
        reference = sum(during) / len(during)
        return result, raw, raw * REFERENCE_SECONDS / reference


def run_pass(ops, speed: Speed, tracer=None):
    """Run every op once, reducing each outcome to its fingerprint as soon
    as it is timed. Returns (raw seconds, rescaled latencies, fingerprints,
    failure messages by op index for the ops that raised)."""
    latencies, prints, raised = [], [], {}
    raw_total = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        outcome, raw, scaled = speed.timed(op.run)
        raw_total += raw
        latencies.append(scaled)
        if isinstance(outcome, Exception):
            raised[index] = f"raised {outcome!r}"
            prints.append(None)
        else:
            prints.append(op.fingerprint(outcome))
        del outcome
    return raw_total, latencies, prints, raised


def check_pass(workload, reference: list):
    """Rerun every op untimed and check its outcome with the op's oracle;
    it must also match the timed passes' fingerprint. Returns (failure
    messages by op index, output regions of the pass)."""
    failures = {}
    regions = 0
    for index, op in enumerate(workload.ops):
        try:
            outcome = op.run()
            message = op.check(outcome)
            if message is None and op.fingerprint(outcome) != reference[index]:
                message = "outcome differs from the timed passes"
            regions += op.regions(outcome)
        except Exception as exc:  # an op or a check that raises has failed
            message = f"raised {exc!r}"
        if message:
            failures[index] = message
    for index, message in workload.pass_check(reference):
        failures.setdefault(index, message)
    return failures, regions


def tail(values):
    """(percentile, value): the highest listed percentile with at least ten
    samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "boolsynth" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench-out"
    work = out_dir / f"{args.workload}-{args.seed}"
    nets = importlib.import_module("workloads").draw_nets(args.workload, args.seed)
    speed = Speed()

    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None  # free the last set-up's inputs before the next
        workload, raw, scaled = fresh_setup(args.workload, args.seed, work, nets, speed)
        setups.append((raw, scaled))
    import tracer as tracer_module

    ops = workload.ops
    tracer = tracer_module.Tracer() if args.trace else None
    reference: list = []
    failed = attempted = 0
    messages: list[str] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: list[float] = []
    latencies: list[list[float]] = [[] for _ in ops]
    layer_samples: list[dict] = []
    traced = False
    started = time.perf_counter()
    while True:
        if traced:
            tracer.reset()
            tracer.install()
        try:
            raw, lat, prints, failures = run_pass(ops, speed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(lat))
        if traced:
            layer_samples.append(
                _rescaled(tracer.layer_metrics(), sum(lat) / raw, tracer_module.LAYER_METRICS)
            )
            failed += len(tracer.unvalidated)
            messages.extend(f"{ops[i].label}: {m}" for i, m in tracer.unvalidated)
        else:
            raw_walls.append(raw)
            for index, value in enumerate(lat):
                latencies[index].append(value)
        if not reference:
            reference = prints
            # Read after one pass, before any oracle runs: the peak covers
            # the program, its inputs and the fingerprints, not the checks.
            # Later passes raise it a little more, and how many there are
            # depends on the host's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for index, fingerprint in enumerate(prints):
            if index not in failures and fingerprint != reference[index]:
                failures[index] = "outcome differs from the first pass"
        attempted += len(ops)
        failed += len(failures)
        messages.extend(f"{ops[i].label}: {m}" for i, m in sorted(failures.items()))
        if args.trace:
            traced = not traced
        # Stop before a pass that would end more than half a pass after
        # the measuring time.
        elapsed = time.perf_counter() - started
        if elapsed + raw / 2 > args.seconds and walls[False] and (walls[True] or not args.trace):
            break
    speed.stop()
    failures, output_regions = check_pass(workload, reference)
    attempted += len(ops)
    failed += len(failures)
    messages.extend(f"{ops[i].label}: {m}" for i, m in sorted(failures.items()))
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    op_times = [statistics.median(values) for values in latencies]
    percentile, tail_value = tail(op_times)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "passes": len(walls[False]) + len(walls[True]),
        "traced_passes": len(walls[True]),
        "op_tail_percentile": percentile,
        "op_tail_samples": len(op_times),
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "raw_wall_s": statistics.median(raw_walls),
        "reference_s": statistics.median(speed.samples),
        "inputs": workload.inputs,
    }
    if args.trace:
        layer = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        tracer.write_spans(out_dir / f"spans-{args.workload}.jsonl")
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in tracer_module.LAYER_METRICS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "op_tail_s": {"value": tail_value, "unit": "s"},
            "output_regions": {"value": output_regions, "unit": "count"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def _rescaled(layer: dict, factor: float, units: dict) -> dict:
    """Layer times of a traced pass on the same scale as the op times."""
    out = {}
    for name, value in layer.items():
        unit = units[name]
        out[name] = value * factor if unit == "s" else value / factor if unit == "1/s" else value
    return out


if __name__ == "__main__":
    sys.exit(main())
