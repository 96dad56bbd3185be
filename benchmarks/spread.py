"""Run every workload of BENCHMARK.json with seeds 1 to 10 and report each
end-to-end metric's median and quartile spread against its bound.

    python3 benchmarks/spread.py [--baseline benchmarks/baseline.json]

The spread of a metric is (Q3 - Q1) / median over the seeds, with quartiles
from statistics.quantiles(values, n=4).  A metric is steady when its spread
is below a third of its bound.  With --baseline, one traced run per
workload (seed 1) is added and the medians, the per-layer values, the
regime shares and the environment are written there.  Runs are sequential,
so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1]), time.perf_counter() - t0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    steady = True
    baseline = {"workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, elapsed = [], []
        for seed in SEEDS:
            result, seconds = bench(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            elapsed.append(seconds)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: correct is false ({result['failed']} failed)")
        print(f"\n{workload}: {len(SEEDS)} runs, {statistics.median(elapsed):.1f} s each (max {max(elapsed):.1f} s)")
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            steady &= ok
            summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
            print(f"  {name:16s} median {med:12.6g} {metric['unit']:6s} spread {spread:7.4f}"
                  f"  bound {metric['bound']:.2f}  {'ok' if ok else 'WIDE'}"
                  f"  runs {' '.join(f'{v:.4g}' for v in values)}")
        baseline["workloads"][workload] = {"end_to_end": summary}
        if args.baseline:
            traced, _ = bench(workload, SEEDS[0], spec["run_seconds"], 1)
            layer = {name: m["value"] for name, m in traced["metrics"].items()}
            baseline["workloads"][workload]["per_layer"] = layer
            baseline["workloads"][workload]["regime_shares"] = {
                k.removeprefix("thermo.regime."): v for k, v in layer.items() if k.startswith("thermo.regime.")
            }

    if args.baseline:
        import numpy

        nproc = len(os.sched_getaffinity(0))
        baseline.update({
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": nproc,
            # run.py pins itself and its children to one CPU and caps BLAS
            # threads at the CPUs it may then use
            "cpus_used": 1,
            "blas_thread_cap": 1,
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "traced_seed": SEEDS[0],
        })
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"\nbaseline written to {args.baseline}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
