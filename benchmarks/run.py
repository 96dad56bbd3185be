"""Benchmark of the potts1d command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload {surface,verify} --seed N \
        --seconds S --trace {0,1}

One client drives `potts1d.cli.main(argv)` in process in a closed loop (each
request is sent when the previous one has returned, as a CLI caller waits
for its output), and `python -m potts1d` as cold processes.  Requests are
argv lists generated from the seed (workloads.py); every output is checked
(checks.py).  With --trace 0 the end-to-end metrics of BENCHMARK.json are
measured with nothing wrapped, each time scaled to a reference host speed
by probes timed around it (hostspeed.py).  With --trace 1 a fixed number of
requests runs twice, untraced and traced, and the per-layer metrics come
from spans recorded around the public functions of each module (spans.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Run on one CPU, and so do the children, so that the host-speed probes
# (hostspeed.py) time the CPU the requests run on.  Cap BLAS threads at the
# CPUs this process may use, before numpy loads; children inherit the cap.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

from checks import CheckError, Regimes, check  # noqa: E402
from hostspeed import PROBES, REFERENCE_S  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CYCLE, SURFACE_STEPS, WORKLOADS, requests  # noqa: E402

# Shares of --seconds spent on each kind of sample in an end-to-end run:
# in-process requests, cold `python -m potts1d` processes, cold starts
# (import plus first request, for setup_s).
SHARES = {"loop": 0.4, "process": 0.4, "setup": 0.2}
MIN_SAMPLES = 3
BLOCK_S = 4.0
# Cold starts of a traced run, which measure process.import_ms.
TRACED_COLD_STARTS = 5
# Requests of a traced run per second of --seconds; each runs untraced and
# traced.  Fixed, so that the counts depend only on the arguments.
TRACED_REQUESTS_PER_S = {"surface": 0.4, "verify": 0.7}
PROCESS_TIMEOUT_S = 120.0


def _traced_requests(workload: str, seconds: float) -> int:
    cycle = CYCLE[workload]  # whole cycles, so every run sees the same mix
    return cycle * max(1, round(TRACED_REQUESTS_PER_S[workload] * seconds / cycle))


class Run:
    def __init__(self, workload: str, seed: int):
        import potts1d.cli

        self.cli = potts1d.cli
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probe = PROBES[workload]
        self.child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def scaled(self, measure):
        """Run measure() between two host-speed probes; returns its result
        with the first item, a time in seconds, scaled to the reference host
        speed (hostspeed.py)."""
        before = self.probe()
        result = measure()
        after = self.probe()
        return (result[0] * 2 * REFERENCE_S / (before + after), *result[1:])

    def stream(self, name: str):
        return requests(self.workload, self.seed, name, str(WORK))

    def judge(self, req, rc, stdout: str) -> Regimes | None:
        self.attempted += 1
        try:
            return check(req, rc, stdout)
        except CheckError as err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(req.argv)}: {err}")
            return None

    def in_process(self, req, tracer: Tracer | None = None, request_id: int = -1):
        """One request through cli.main; returns (seconds, rc, stdout)."""
        if req.out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(req.out)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.cli.main(list(req.argv))
                else:
                    rc = tracer.call(request_id, self.cli.main, list(req.argv))
        except Exception as exc:  # a raising request is a failed request
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if rc != 0 and err.getvalue():
            rc = f"{rc}: {err.getvalue().strip()[:200]}"
        return elapsed, rc, out.getvalue()

    def process(self, cmd: list[str], out_path: str | None):
        """Run a child to completion; returns (seconds, rc, stdout, peak RSS in MiB)."""
        if out_path:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
        with open(WORK / "child.stderr", "w+b") as err_file:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_file, cwd=ROOT, env=self.child_env)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                stdout = child.stdout.read()
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
                child.stdout.close()
            elapsed = time.perf_counter() - t0
            child.returncode = rc = os.waitstatus_to_exitcode(status)
            if rc != 0:
                err_file.seek(0)
                rc = f"{rc}: {err_file.read().decode(errors='replace').strip()[:200]}"
        return elapsed, rc, stdout.decode(), usage.ru_maxrss / 1024.0

    def cold_start(self, req) -> tuple[float, float | None]:
        """(import plus first-request seconds, import seconds) in a fresh
        interpreter; (nan, None) when the interpreter failed."""
        _, rc, stdout, _ = self.process([sys.executable, str(HERE / "coldstart.py"), json.dumps(req.argv)], req.out)
        if rc != 0:
            self.judge(req, rc, "")
            return math.nan, None
        probe = json.loads(stdout.splitlines()[-1])
        self.judge(req, probe["rc"], probe["stdout"])
        return probe["import_s"] + probe["request_s"], probe["import_s"]

    def warm_up(self) -> None:
        req = next(self.stream("warmup"))
        _, rc, stdout = self.in_process(req)
        self.judge(req, rc, stdout)


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Every sample is a time at the reference host speed (Run.scaled), and
    every metric a median over the run.  The three kinds of sample alternate
    in blocks over the whole run, each kind taking about its share of the
    time, so that each statistic spans the run: on a shared host CPU speed
    drifts over tens of seconds.  Blocks rather than single samples, because
    an in-process request that follows a cold process runs up to a quarter
    slower.  A block ends on a whole workload cycle, so every kind sees the
    same mix of requests in every run."""
    run.warm_up()
    samples = {kind: [] for kind in SHARES}
    spent = dict.fromkeys(SHARES, 0.0)
    streams = {kind: run.stream(kind) for kind in SHARES}
    tries = dict.fromkeys(SHARES, 0)
    cycle = CYCLE[run.workload]

    def sample(kind: str) -> None:
        tries[kind] += 1
        req = next(streams[kind])
        if kind == "loop":
            elapsed, rc, stdout = run.scaled(lambda: run.in_process(req))
            samples[kind].append(elapsed)
            run.judge(req, rc, stdout)
        elif kind == "process":
            cmd = [sys.executable, "-m", "potts1d", *req.argv]
            elapsed, rc, stdout, peak_mb = run.scaled(lambda: run.process(cmd, req.out))
            samples[kind].append((elapsed, peak_mb))
            run.judge(req, rc, stdout)
        else:
            elapsed, import_s = run.scaled(lambda: run.cold_start(req))
            if import_s is not None:
                samples[kind].append(elapsed)

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(tries.values()) < MIN_SAMPLES:
        kind = min(SHARES, key=lambda k: spent[k] / SHARES[k])
        block_start = time.perf_counter()
        block_end = min(block_start + BLOCK_S, deadline)
        sample(kind)
        while time.perf_counter() < block_end or tries[kind] % cycle:
            sample(kind)
        spent[kind] += time.perf_counter() - block_start

    return {
        # 0 only when every cold start crashed, and then `correct` is false
        "setup_s": statistics.median(samples["setup"]) if samples["setup"] else 0.0,
        "latency_ms": 1e3 * statistics.median(samples["loop"]),
        "process_ms": 1e3 * statistics.median(wall for wall, _ in samples["process"]),
        "peak_rss_mb": statistics.median(peak for _, peak in samples["process"]),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    w = run.workload
    imports = [p[1] for p in map(run.cold_start, itertools.islice(run.stream("setup"), TRACED_COLD_STARTS)) if p[1] is not None]
    run.warm_up()

    # The same requests run untraced and traced: the first half untraced,
    # all traced, the second half untraced, so a drift in CPU speed affects
    # both sides alike.  Wrappers are installed once: rebinding module
    # globals around every request would also slow the untraced side,
    # because the interpreter re-specializes on each.
    reqs = list(itertools.islice(run.stream("traced"), _traced_requests(w, seconds)))
    n_req = len(reqs)
    plain = []

    def untraced(batch) -> None:
        for req in batch:
            elapsed, rc, stdout = run.in_process(req)
            plain.append(elapsed)
            run.judge(req, rc, stdout)

    untraced(reqs[: n_req // 2])
    tracer = Tracer()
    traced = []
    regimes = Regimes()
    csv_cells = json_cells = bytes_written = 0
    tracer.install()
    try:
        for rid, req in enumerate(reqs):
            elapsed, rc, stdout = run.in_process(req, tracer, rid)
            traced.append(elapsed)
            seen = run.judge(req, rc, stdout)
            if seen is not None:
                regimes.update(seen)
            if w == "surface":
                cells = SURFACE_STEPS[0] * SURFACE_STEPS[1] * (2 + 10)
                csv_cells += cells if req.format == "csv" else 0
                json_cells += cells if req.format == "json" else 0
                bytes_written += os.path.getsize(req.out) if os.path.exists(req.out) else 0
            else:
                bytes_written += len(stdout.encode())
    finally:
        tracer.uninstall()
    untraced(reqs[n_req // 2 :])

    spans = tracer.spans()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{w}-{run.seed}.csv.gz"
    tracer.write(spans_path)
    print(f"spans written to {spans_path}", file=sys.stderr)

    def span(name: str) -> dict[str, int]:
        return spans.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})

    def per_call(name: str, scale: float) -> float:
        s = span(name)
        return s["busy_ns"] / s["calls"] / scale if s["calls"] else 0.0

    def per_unit(name: str, units: int) -> float:
        return span(name)["busy_ns"] / units if units else 0.0

    def share(key: str) -> float:
        return regimes[key] / regimes["points"] if regimes["points"] else 0.0

    counts = tracer.counter
    configs = counts["oracle.enumerate_partition"]
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    return {
        "cli.parse_run_config.us_per_call": per_call("cli.parse_run_config", 1e3),
        "process.import_ms": 1e3 * statistics.median(imports),
        "sweep.sweep_2d.self_ms": span("sweep.sweep_2d")["self_ns"] / n_req / 1e6,
        "model.constructions_per_request": (counts["new ModelParams"] + counts["new ThermoState"]) / n_req,
        "thermo.thermo_point.calls": span("thermo.thermo_point")["calls"] / n_req,
        "thermo.thermo_point.ns_per_call": per_call("thermo.thermo_point", 1.0),
        "cli.table_to_csv.ns_per_cell": per_unit("cli.table_to_csv", csv_cells),
        "cli.table_to_json.ns_per_cell": per_unit("cli.table_to_json", json_cells),
        "cli.bytes_written": bytes_written / n_req,
        "oracle.enumerate_partition.configs": configs / n_req,
        "oracle.enumerate_partition.ns_per_config": per_unit("oracle.enumerate_partition", configs),
        "oracle.trace_power_partition.products": counts["matmul"] / n_req,
        "oracle.trace_power_partition.busy_ms": span("oracle.trace_power_partition")["busy_ns"] / n_req / 1e6,
        "thermo.fd_verify.busy_ms": span("thermo.fd_verify")["busy_ns"] / n_req / 1e6,
        "transfer.partition_function.calls": span("transfer.partition_function")["calls"] / n_req,
        "transfer.partition_function.busy_ms": span("transfer.partition_function")["busy_ns"] / n_req / 1e6,
        "cli.run.self_ms": span("cli.run")["self_ns"] / n_req / 1e6,
        "trace.spans_per_request": len(tracer.start) / n_req,
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
        "thermo.regime.x_gt_40_share": share("x_gt_40"),
        "thermo.regime.chi_zero_share": share("chi_zero"),
        "thermo.regime.s_negative_share": share("s_negative"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "potts1d" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no potts1d sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(run, args.seconds)
    finally:
        for leftover in ("surface.csv", "surface.json", "child.stderr"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(WORK / leftover)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 2
    for message in run.errors:
        print(f"failed: {message}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
