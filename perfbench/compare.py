"""Run the benchmark as sets of seeded runs and compare the sets.

    python3 perfbench/compare.py             # two sets of 10 runs per workload
    python3 perfbench/compare.py --sets 1    # one set

Reads the command, run length, workloads and bounds from BENCHMARK.json
and runs every workload.  Set s uses seeds s*1000+1 .. s*1000+10, one run
at a time.  A run that fails an operation or a check exits non-zero, which
stops the comparison.  For every workload and end-to-end metric it prints
each set's median and spread (the distance between the first and third
quartile as a share of the median), and whether every spread and the
change of every set's median from set 1's, in either direction, stay
within the metric's bound.  Raw results go to perfbench/out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}{proc.stdout[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(1, args.sets + 1):
        for w in workloads:
            runs = []
            for seed in range(s * 1000 + 1, s * 1000 + RUNS + 1):
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                figures = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
                print(f"set {s} {w} seed {seed}: {json.dumps(figures)}", file=sys.stderr)
            results[w].append(runs)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(results, indent=1))

    ok = True
    heads = "  ".join(f"{'median' + str(s):>10} {'spread' + str(s):>8}" for s in range(1, args.sets + 1))
    print(f"{'workload':<10} {'metric':<12} {'bound':>6}  {heads}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            moved = max(abs(m / medians[0] - 1) for m in medians)
            good = moved <= bound and all(sp <= bound for sp in spreads)
            ok &= good
            cells = "  ".join(f"{m:10.4f} {sp:8.1%}" for m, sp in zip(medians, spreads))
            verdict = "ok" if good else "OUT OF BOUND"
            print(f"{w:<10} {name:<12} {bound:6.2f}  {cells}  {verdict} (medians moved {moved:.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
