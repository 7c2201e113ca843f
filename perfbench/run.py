"""Benchmark of nonnegsets: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
A set-up sample is ``import nonnegsets`` plus generating the workload's
inputs from ``--seed``, both timed in a fresh interpreter, so that set-up
leaves nothing in this process; one is taken before the first operation
and two after every timed round, and ``setup_s`` is their median.  The
workload's fixed list of operations runs once untimed, then in timed
rounds until ``--seconds`` have been measured, then once more as the
check round, whose outputs are compared with independent computations.
The checks run after ``peak_rss_mb`` is read, so that the checkers' memory
stays out of it.  Every round's output must be byte-identical to the first
round's (compared by SHA-256 digest).  A run in which an operation fails or
an output is wrong still prints its result and exits with code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer table and the tracing
overhead on stderr, writes the spans to ``perfbench/out/``, and reports
the per-layer metrics per traced round.  The last line of stdout is the
JSON result; the per-operation table goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

MIN_TIMED_ROUNDS = 4
# Set-up samples taken after each timed round; with the one before the
# first operation a run has at least 9.
SETUP_SAMPLES_PER_ROUND = 2
# Run as ``python -c SETUP_PROBE <workload> <input seed> <workdir>``.
SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
import nonnegsets
imported = time.perf_counter() - t
import random, workloads
t = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]](random.Random(sys.argv[2]), sys.argv[3])
print(imported + time.perf_counter() - t, nonnegsets.__file__)
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_sample(workload: str, input_seed: str) -> float:
    """One set-up sample: import plus input generation, timed in a fresh interpreter."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-setup-", dir=OUT)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, input_seed, workdir],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"set-up probe loaded {path}, not the checkout's src/")
    return float(seconds)


class Runner:
    """Runs rounds of one workload's operations and keeps their figures."""

    def __init__(self, ops, tracer) -> None:
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # SHA-256 of each operation's output in the first round (None if it failed).
        self.reference: list[bytes | None] = []

    def _problem(self, op, message: str) -> None:
        print(f"perfbench: {op.kind} [{op.notes.get('argv')}]: {message}", file=sys.stderr)

    def round(self, traced: bool, check: bool = False) -> tuple[list[float | None], int]:
        """One pass over the operations; returns op times (None if failed) and CLI output bytes.

        The first pass keeps the digest of each output; later passes must
        match it.  With ``check`` every output is also checked.
        """
        first = not self.reference
        times: list[float | None] = []
        out_bytes = 0
        if traced:
            self.tracer.install()
        try:
            for idx, op in enumerate(self.ops):
                self.attempted += 1
                frame = None
                if traced:
                    self.tracer.op_id = idx
                    frame = self.tracer.open(f"op.{op.kind}")
                start = time.perf_counter()
                try:
                    raw = op.call()
                except Exception as exc:  # the program refused or crashed: count it, keep going
                    raw = None
                    self.failed += 1
                    self._problem(op, f"failed: {type(exc).__name__}: {exc}")
                finally:
                    elapsed = time.perf_counter() - start
                    if frame is not None:
                        self.tracer.close(frame)
                digest = None if raw is None else hashlib.sha256(raw).digest()
                if first:
                    self.reference.append(digest)
                elif digest != self.reference[idx]:
                    self.correct = False
                    self._problem(op, "output differs from the first round")
                if raw is None:
                    times.append(None)
                    continue
                times.append(elapsed)
                if op.cli:
                    out_bytes += len(raw)
                if check:
                    try:
                        op.check(raw)
                    except Exception as exc:
                        self.correct = False
                        self._problem(op, f"wrong output: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        return times, out_bytes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nonnegsets" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import nonnegsets  # the package under test, from src/
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not Path(nonnegsets.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail(f"imported nonnegsets from {nonnegsets.__file__}, not {SRC}")
    input_seed = f"{args.workload}:{args.seed}"
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_sample(args.workload, input_seed)  # warms the file cache; not counted
        setup_samples = [setup_sample(args.workload, input_seed)]
        ops = workloads.WORKLOADS[args.workload](random.Random(input_seed), workdir)
        runner = Runner(ops, tracing.Tracer())
        runner.round(traced=False)  # warm-up; keeps the reference digests
        # Per-operation times of the timed rounds, untraced and traced.
        samples: dict[bool, list[list[float | None]]] = {False: [], True: []}
        out_bytes = 0
        measured = 0.0
        rounds = 0
        while measured < args.seconds or rounds < MIN_TIMED_ROUNDS:
            traced = bool(args.trace) and rounds % 2 == 1
            start = time.perf_counter()
            times, nbytes = runner.round(traced)
            measured += time.perf_counter() - start
            rounds += 1
            samples[traced].append(times)
            if traced:
                out_bytes += nbytes
            # Further set-up samples spread over the run, so that their
            # median does not hang on the machine's state at one moment.
            setup_samples.extend(setup_sample(args.workload, input_seed) for _ in range(SETUP_SAMPLES_PER_ROUND))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.round(traced=False, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_op = {traced: op_times(rows, len(ops)) for traced, rows in samples.items()}
    timed = [t for t in per_op[False] if t is not None]
    report_ops(ops, per_op[False])
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        runner.tracer.write(str(trace_path))
        metrics = runner.tracer.layer_metrics(len(samples[True]), out_bytes)
        both = [(u, t) for u, t in zip(per_op[False], per_op[True]) if u is not None and t is not None]
        overhead = sum(t for _, t in both) / sum(u for u, _ in both) - 1
        report_layers(metrics, overhead, trace_path)
        units = {"_per_s": "1/s", "_s": "s", "_mb": "MB"}
        unit_of = lambda name: next((u for end, u in units.items() if name.endswith(end)), "count")  # noqa: E731
        result = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        result = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": sum(timed), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(timed) * 1e3 if timed else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": result}))
    return 0 if runner.correct and not runner.failed else 1


def op_times(rows: list[list[float | None]], n_ops: int) -> list[float | None]:
    """Each operation's time: the upper quartile of its times over the rounds.

    The host this was built on runs in bursts up to 30% faster, each 5 to
    45 s long.  A burst that covers half a run moves a median; the upper
    quartile moves only when a burst covers three quarters of the run.
    An operation that failed in every round has no time (None).
    """
    out: list[float | None] = []
    for i in range(n_ops):
        values = [row[i] for row in rows if row[i] is not None]
        if len(values) >= 2:
            out.append(statistics.quantiles(values, n=4, method="inclusive")[2])
        else:
            out.append(values[0] if values else None)
    return out


def report_ops(ops, times: list[float | None]) -> None:
    """Each operation's time over the untraced timed rounds, on stderr."""
    for op, seconds in zip(ops, times):
        shown = "   failed" if seconds is None else f"{seconds * 1e3:9.2f}"
        strength = op.notes.get("strength")
        extra = f"  max_count/bound={strength:.4f}" if strength is not None else ""
        print(f"  {op.kind:<12} {shown} ms  {op.notes.get('argv', '')}{extra}", file=sys.stderr)


def report_layers(metrics: dict[str, float], overhead: float, trace_path: Path) -> None:
    for name, value in metrics.items():
        print(f"  {name:<22} {value:14.6g}", file=sys.stderr)
    where = trace_path.relative_to(ROOT)
    print(f"  tracing overhead on wall_s: {overhead * 100:+.1f}%  (spans in {where})", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
