"""optomech benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and benchmarks the package under
`src/`. Inputs are generated from --seed; one client runs the workload's
operations back to back for --seconds of measured time, and every output
is checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from a traced run that also writes its spans to
.bench_build/perfbench-traces/. The line before it holds the provenance.

--smallest runs each workload at its smallest input sizes (smoke test).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
SETUP_RUNS = 3
READY = "import optomech, optomech.cli; print('ready', flush=True)"
# Median host_kernel() time on the reference host (2-CPU x86-64 VM,
# Python 3.11.7, numpy 2.4.6); see host_kernel().
KERNEL_REF_S = 0.018
# A cold interpreter that imports numpy: the start-up speed of the host.
COLD_REFERENCE = "import numpy"
# Median cold_reference() time on the reference host, measured while
# host_kernel() took about 33 ms; see cold_reference().
COLD_REF_S = 0.23


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_optomech():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (SRC / "optomech" / "__init__.py").is_file():
        sys.exit(f"error: no optomech sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import optomech
    if Path(optomech.__file__).resolve().parent != SRC / "optomech":
        sys.exit(f"error: optomech imported from {optomech.__file__}")


def start_worker(importtime: bool) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until it has imported
    optomech and reports ready; with the -X importtime log if asked."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *flags, "-c", READY],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, log = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"error: worker did not start: {log.strip()[-500:]}")
    return ready, log


def cold_reference() -> float:
    """Seconds from spawning a fresh interpreter that runs COLD_REFERENCE
    until it has exited: the host's current start-up speed, which
    host_kernel() does not follow. It loads no code of this repository.
    Each set-up time is scaled by COLD_REF_S over the mean of the
    cold_reference() times before and after it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_REFERENCE], check=True,
                   env=child_env(), stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_breakdown(log: str) -> dict[str, float]:
    """import.* metrics (ms) from one `python -X importtime` log."""
    total = numpy = scipy_optimize = own = 0.0
    for line in log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us = int(m[1]), int(m[2])
        indent, name = len(m[3]), m[4]
        if indent == 1:
            total += cumulative_us
        if name == "numpy":
            numpy = cumulative_us
        elif name == "scipy.optimize":
            scipy_optimize = cumulative_us
        if name.split(".")[0] == "optomech":
            own += self_us
    return {"import.total_ms": total / 1e3, "import.numpy_ms": numpy / 1e3,
            "import.scipy_optimize_ms": scipy_optimize / 1e3,
            "import.optomech_self_ms": own / 1e3}


def host_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter arithmetic, float
    formatting and numpy work: this process's current speed. The host this
    benchmark was tuned on drifts by up to 1.5x over minutes, so operation
    times are scaled by it (see scaled_op_s)."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += math.cos(i * 1e-3) * math.exp(-i * 1e-5)
    text = "\n".join([f"{i * 0.1!r},{acc / (i + 1)!r}" for i in range(5_000)])
    x = np.linspace(0.0, 1.0, 200_000)
    np.abs(1.0 + len(text) / (x - 0.5 - 1e-3j)).sum()
    return time.perf_counter() - t0


# Each workload names the reference that tracks the speed of its
# operations: (function, operation seconds between two runs of it).
REFERENCES = {"host_kernel": (host_kernel, 0.25),
              "cold_reference": (cold_reference, 4.0)}


def quantile(samples: list[float], percentile: int) -> float:
    """Harrell-Davis estimate of the percentile-th percentile: a mean of
    all order statistics weighted by a Beta distribution, steadier than one
    or two order statistics when a run holds few operations whose times
    differ widely. Below ten samples, where the Beta density is singular
    at high percentiles, it interpolates between samples."""
    import numpy as np
    n = len(samples)
    if n == 1:
        return samples[0]
    if n < 10:
        return statistics.quantiles(samples, n=100,
                                    method="inclusive")[percentile - 1]
    x = np.sort(samples)
    p = percentile / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # weight of x[i]: the Beta(a, b) mass on [i/n, (i+1)/n], integrated by
    # the trapezoid rule on 40 intervals per sample
    t = np.linspace(0.0, 1.0, 40 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    return float(np.diff(cdf[::40]) @ x / cdf[-1])


class Loop:
    """Outcome of running a workload's closed loop."""

    def __init__(self):
        self.op_s: list[float] = []
        self.ops: list = []
        self.op_work: list[float] = []
        self.ref_s: list[float] = []     # the workload's reference times
        self.op_ref: list[int] = []      # index of the reference before it
        self.failed = 0
        self.errors: list[str] = []


def run_loop(workload, seconds: float, tracer=None, replay=None) -> Loop:
    """Run operations until their summed time reaches `seconds`, or run
    exactly the operations in `replay`."""
    reference, every = REFERENCES[workload.speed_reference]
    loop = Loop()
    reference()                            # warm-up, not kept
    loop.ref_s.append(reference())
    spent = since_ref = 0.0
    for op in workload.ops() if replay is None else replay:
        if replay is None and spent >= seconds and loop.op_s:
            break
        record = tracer.start(workload.span) if tracer else None
        t0 = time.perf_counter()
        try:
            output, error = workload.execute(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, exc
        elapsed = time.perf_counter() - t0
        if record:
            tracer.end(record)
        spent += elapsed
        since_ref += elapsed
        loop.op_s.append(elapsed)
        loop.op_ref.append(len(loop.ref_s) - 1)
        loop.ops.append(op)
        work = 0.0
        try:
            if error is not None:
                raise error
            work = workload.verify(op, output)
        except Exception as exc:  # wrong output: count it, keep running
            loop.failed += 1
            loop.errors.append(f"{type(exc).__name__}: {exc}")
        loop.op_work.append(work)
        if since_ref >= every:
            loop.ref_s.append(reference())
            since_ref = 0.0
    if since_ref:
        loop.ref_s.append(reference())
    return loop


def scaled_op_s(loop: Loop, reference: str,
                setup_ref: list[float]) -> list[float]:
    """Operation times at the reference host's speed. With host_kernel,
    each one is scaled by KERNEL_REF_S over the median of the two kernel
    times before it and the two after it. Cold references are few (one per
    4 s of operations) and each is noisy, so with them every operation is
    scaled by COLD_REF_S over the median of all of the run's cold
    references, those around set-up included."""
    k = loop.ref_s
    if reference == "host_kernel":
        return [s * KERNEL_REF_S / statistics.median(k[max(i - 1, 0):i + 3])
                for s, i in zip(loop.op_s, loop.op_ref)]
    scale = COLD_REF_S / statistics.median(setup_ref + k)
    return [s * scale for s in loop.op_s]


def end_to_end(loop: Loop, setup: list[float], setup_ref: list[float],
               workload) -> tuple[dict, dict]:
    """(metrics, the same unscaled). setup_s is scaled by the
    cold_reference() times around each set-up. op_ms_p50, op_ms_tail and
    work_per_s come from the operation times scaled by scaled_op_s()."""
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

    def times(op_s: list[float]) -> dict:
        op_ms = [s * 1e3 for s in op_s]
        return {"op_ms_p50": quantile(op_ms, 50),
                "op_ms_tail": quantile(op_ms, workload.tail_percentile),
                "work_per_s": sum(loop.op_work) / sum(op_s)}
    raw = {"setup_s": statistics.median(setup),
           "peak_rss_mb": max(usage) / 1024.0, **times(loop.op_s)}
    setup_s = statistics.median(
        s * 2.0 * COLD_REF_S / (a + b)
        for s, a, b in zip(setup, setup_ref, setup_ref[1:]))
    return dict(raw, setup_s=setup_s, **times(
        scaled_op_s(loop, workload.speed_reference, setup_ref))), raw


def per_layer(workload, plain: Loop, traced: Loop, tracer,
              imports: list[dict]) -> dict[str, float]:
    c = tracer.counters
    out = {key: statistics.median(d[key] for d in imports)
           for key in imports[0]}
    cold = {True: [], False: []}
    if workload.name == "cli_cold":
        for op, s in zip(traced.ops, traced.op_s):
            cold[workload.is_fit(op)].append(s * 1e3)
    out["cli.cold_fit_ms_p50"] = statistics.median(cold[True] or [0.0])
    out["cli.cold_nofit_ms_p50"] = statistics.median(cold[False] or [0.0])
    out.update(tracer.summary())
    for name in ("runner.run_scenario.calls", "quadrature.calls",
                 "quadrature.integrand_evals", "mechanics.effective_mass.calls",
                 "mechanics.thermal_spectrum.points",
                 "sensing.fit_response.calls", "sensing.fit_response.nfev",
                 "sensing.ResponseCurve.from_csv.rows",
                 "coupling.fit_exponential.calls",
                 "coupling.fit_exponential.nfev",
                 "coupling.ShiftCurve.from_csv.rows",
                 "backaction.linewidth_vs_coupling.points"):
        out[name] = c[name]
    out["fit.converged_ratio"] = (c["fit.converged"] / c["fit.attempts"]
                                  if c["fit.attempts"] else 0.0)
    out["fit.param_rel_err_p50"] = statistics.median(
        workload.fit_errors or [0.0])
    rows, size = workload.serialized
    out["serialize.csv_rows"] = rows
    out["serialize.csv_bytes"] = size
    out["serialize.us_per_row"] = workload.serialize_us_per_row(
        plain.ops, plain.op_s, plain.op_work)
    plain_ms = sum(plain.op_s) / len(plain.op_s)
    traced_ms = sum(traced.op_s) / len(traced.op_s)
    out["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
    return out


def provenance(args, workload, loop: Loop) -> dict:
    import numpy
    from importlib.metadata import version
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "work_unit": workload.work_unit, "operations": len(loop.op_s),
            "tail_percentile": workload.tail_percentile,
            "sizes": workload.sizes(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"),
            "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "commit": commit, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: work files are removed and children ended
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    import_optomech()
    from tracing import Tracer
    from workloads import WORKLOADS

    work_dir = BUILD / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup, imports = [], []
        cold_reference()                   # warm-up, not kept
        setup_ref = [cold_reference()]
        for _ in range(1 if args.smallest else SETUP_RUNS):
            seconds, log = start_worker(importtime=bool(args.trace))
            setup.append(seconds)
            setup_ref.append(cold_reference())
            if args.trace:
                imports.append(import_breakdown(log))
        workload = WORKLOADS[args.workload](args.seed, work_dir,
                                           args.smallest, child_env())
        if args.trace:
            plain = run_loop(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                loop = run_loop(workload, 0.0, tracer, replay=plain.ops)
            finally:
                tracer.uninstall()
            metrics = per_layer(workload, plain, loop, tracer, imports)
            loop.failed += plain.failed
            loop.errors += plain.errors
            loop.op_s += plain.op_s
            loop.op_work += plain.op_work
            names = spec["per_layer"]
        else:
            loop = run_loop(workload, args.seconds)
            metrics, unscaled = end_to_end(loop, setup, setup_ref,
                                           workload)
            names = spec["end_to_end"]
        info = provenance(args, workload, loop)
        info["speed_reference"] = workload.speed_reference
        info["speed_reference_ms_p50"] = statistics.median(loop.ref_s) * 1e3
        info["setup_cold_reference_ms_p50"] = \
            statistics.median(setup_ref) * 1e3
        if not args.trace:
            info["unscaled"] = unscaled
        if args.trace:
            path = BUILD / "perfbench-traces" / \
                f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(path, {"provenance": info, "metrics": metrics})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for error in loop.errors[:5]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.op_s),
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
