"""Benchmark of the `contextuality` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus, sparse-covers, composite-moduli, point-queries (see
workloads.py and design.json for what each holds and why).

Set-up runs `make_inputs.py` in a fresh process SETUP_REPEATS times; each
imports the library, generates the seeded documents and writes them under
.bench_run/ in this checkout. `setup_s` is the median of those wall times.

Then one client drives a closed loop in this process (one thread): each
operation is one CLI command run through `contextuality.cli.main(argv)`
with stdout captured, the next starting when the previous one ended. The
loop runs whole passes over the operations, each pass in a seeded order,
until --seconds have gone by. An operation fails if it raises, exits
non-zero, or returns a verdict other than the expected one (undecided
included); failed operations are left out of `op_ms`.

End-to-end metrics (--trace 0):
  op_ms.p50, op_ms.p90  wall time of one CLI operation, calibrated
  ops_per_s             completed operations per second of calibrated
                        operation time
  setup_s               median set-up time, fresh process
  peak_rss_mb           ru_maxrss of this process

Calibration: on a shared machine the speed of the CPU this process gets
drifts by tens of percent within seconds. A fixed block of pure-Python
work runs after every operation (see Loop), and each operation's wall time
is scaled to the reference speed at which one block takes
CALIBRATION_SECONDS. The block touches none of the library, so a change to
the library moves the calibrated times as much as the wall times. The
uncalibrated figures are printed too.

With --trace 1 the run spends half of --seconds untraced and half replaying
every operation through the public function of each module with spans
(tracing.py), and reports the per-layer metrics instead. Every replay must
reach the verdicts the CLI printed for the same operation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from make_inputs import ROOT, use_source_tree

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT = 60
# The reference speed: one calibration block takes CALIBRATION_SECONDS.
CALIBRATION_STEPS = 6000
CALIBRATION_SECONDS = 0.002
END_TO_END = (
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def set_up(workload: str, seed: int, out: Path) -> list[float]:
    times = []
    command = [
        sys.executable, str(BENCH_DIR / "make_inputs.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # wait() with a timeout polls with sleeps of up to 50 ms, which would
        # quantise the measurement; a watchdog thread bounds it instead
        with subprocess.Popen(command) as child:
            watchdog = threading.Timer(SETUP_TIMEOUT, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise SystemExit(f"set-up exited with {code}")
    return times


def calibration() -> float:
    """Seconds taken by a fixed block of pure-Python work (tuple, dict and
    integer traffic, like the library's): the machine's current speed."""
    start = perf_counter()
    acc: dict = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * i % 7
    return perf_counter() - start


class Loop:
    """Closed-loop client: whole passes in seeded order until time is up.

    A calibration block runs before the first operation and after each
    one. Every sample is the operation's wall time scaled by the reference
    block time over the mean of the two blocks around it. The speed drifts
    within fractions of a second, so the nearest blocks predict it better
    than longer or wider calibration windows do.
    """

    def __init__(self, ops: list[dict], seed: int, directory: Path):
        self.ops = ops
        self.rng = random.Random(f"{seed}/order")
        self.directory = directory
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.samples: list[float] = []
        self.wall: list[float] = []

    def argv(self, op: dict) -> list[str]:
        return [op["command"], str(self.directory / f"{op['doc']}.json"), *op["argv"]]

    def run(self, seconds: float, step) -> None:
        start = perf_counter()
        before = calibration()
        while True:
            order = list(self.ops)
            self.rng.shuffle(order)
            for op in order:
                self.attempted += 1
                elapsed = step(op)
                after = calibration()
                if elapsed is None:
                    self.failed += 1
                else:
                    self.wall.append(elapsed)
                    self.samples.append(elapsed * 2 * CALIBRATION_SECONDS / (before + after))
                before = after
            self.passes += 1
            if perf_counter() - start >= seconds:
                return


def report_failure(op: dict, detail: str) -> None:
    sys.stderr.write(f"FAILED {op['key']}: {detail}\n")


def cli_step(main, loop: Loop, verdicts_seen: dict):
    from tracing import analyze_verdicts

    def step(op: dict) -> float | None:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(loop.argv(op))
        except Exception:
            report_failure(op, traceback.format_exc())
            return None
        elapsed = perf_counter() - start
        if code != 0:
            report_failure(op, f"exit {code}: {err.getvalue().strip()}")
            return None
        try:
            data = json.loads(out.getvalue())
        except ValueError as exc:
            report_failure(op, f"unreadable output: {exc}")
            return None
        if op["command"] == "analyze":
            verdict = analyze_verdicts(data)
        else:
            verdict = data["vanishes" if op["command"] == "obstruction" else "avn"]
        verdicts_seen[op["key"]] = verdict
        if verdict != op["expected"]:
            report_failure(op, f"verdict {verdict}, expected {op['expected']}")
            return None
        return elapsed

    return step


def traced_step(tracer, loop: Loop, verdicts_seen: dict):
    from tracing import REPLAYS, ReplayMismatch

    def step(op: dict) -> float | None:
        tracer.op += 1
        try:
            verdict = REPLAYS[op["command"]](tracer, loop.argv(op))
        except ReplayMismatch as exc:
            report_failure(op, f"replay mismatch: {exc}")
            return None
        except Exception:
            report_failure(op, traceback.format_exc())
            return None
        if verdict != verdicts_seen.get(op["key"]) or verdict != op["expected"]:
            report_failure(op, f"replay verdict {verdict}, CLI {verdicts_seen.get(op['key'])}")
            return None
        return tracer.last_root.end - tracer.last_root.start

    return step


def percentiles(samples: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return cuts[4], cuts[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contextuality CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    directory = ROOT / ".bench_run" / f"{args.workload}-{args.seed}"
    setup_times = set_up(args.workload, args.seed, directory)
    ops = json.loads((directory / "operations.json").read_text(encoding="utf-8"))

    from contextuality.cli import main as cli_main

    print(
        f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass; "
        f"nproc {os.cpu_count()}, Python {platform.python_version()}"
    )
    verdicts_seen: dict = {}
    untraced = Loop(ops, args.seed, directory)
    untraced.run(args.seconds / 2 if args.trace else args.seconds, cli_step(cli_main, untraced, verdicts_seen))
    if not untraced.samples:
        raise SystemExit("every operation failed")
    p50, p90 = percentiles(untraced.samples)
    attempted, failed = untraced.attempted, untraced.failed

    if args.trace:
        from tracing import Tracer, per_layer_metrics

        tracer = Tracer()
        traced = Loop(ops, args.seed, directory)
        traced.run(args.seconds / 2, traced_step(tracer, traced, verdicts_seen))
        tracer.dump(directory / "spans.jsonl")
        attempted += traced.attempted
        failed += traced.failed
        values = tracer.metrics(p50, percentiles(traced.samples)[0])
        metrics = {name: values[name] for name, _ in per_layer_metrics()}
        print(f"traced: {traced.passes} passes, {traced.attempted} operations, spans in {directory / 'spans.jsonl'}")
    else:
        samples = len(untraced.samples)
        beyond = sum(1 for s in untraced.samples if s > p90)
        wall50, wall90 = percentiles(untraced.wall)
        print(
            f"untraced: {untraced.passes} passes, {samples} samples, "
            f"{beyond} beyond p90, failed_frac {untraced.failed / untraced.attempted:.4f}; "
            f"uncalibrated p50 {wall50 * 1000:.4f} ms, p90 {wall90 * 1000:.4f} ms, "
            f"{samples / sum(untraced.wall):.4f} ops/s"
        )
        metrics = {
            "op_ms.p50": (p50 * 1000, "ms"),
            "op_ms.p90": (p90 * 1000, "ms"),
            "ops_per_s": (samples / sum(untraced.samples), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
