"""reslat benchmark: closed-loop verification workloads.

    python3 perfbench/run.py [--workload kripke|small-algebras|free-congruence|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each pass over a workload's job list
runs in a fresh child process (one client, one thread, numpy/BLAS pinned
to one thread), which builds the workload's inputs from the seed through
reslat's public API, runs every job once and checks its result.  The
parent starts such children one after another for about S seconds, at
least one, and takes each job's median over them.  Set-up is the median
over those children and set-up-only ones, SETUP_REPEATS set-ups in all.
Every time metric is CPU time at reference speed; bench.py says how and
why.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes
for S/2 seconds, then as many traced passes, and prints the per-layer
metrics, with the traced run's slowdown as trace.overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md.
"""

import time

_PROCESS_START = time.perf_counter()
_PROCESS_START_CPU = time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
WORKLOADS = ("kripke", "small-algebras", "free-congruence")
SETUP_REPEATS = 3
SETUP_PROBES = 50  # probes timed right after set-up, to scale it to reference speed
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child: one workload in one process
# ---------------------------------------------------------------------------


def child(args):
    import resource

    import numpy
    import reslat

    if Path(reslat.__file__).resolve().parent != SRC / "reslat":
        raise BenchError("reslat imported from %s, not %s" % (reslat.__file__, SRC))
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        jobs = workloads.build(args.workload, args.seed)
    setup_cpu = time.process_time() - _PROCESS_START_CPU
    setup_wall = time.perf_counter() - _PROCESS_START
    probe_s = bench.interquartile_mean(bench.time_probe() for _ in range(SETUP_PROBES))
    result = {"setup_s": setup_cpu * bench.PROBE_REF_S / probe_s, "wall_setup_s": setup_wall}
    if not args.setup_only:
        if tracer:
            result.update(traced_run(args, jobs, bench, tracing, tracer))
        else:
            first = bench.run_pass(jobs)
            result.update(first._asdict())
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["numpy"] = numpy.__version__
    print(json.dumps(result))


def traced_run(args, jobs, bench, tracing, tracer):
    """Untraced passes for half the time, then as many traced ones."""
    plain = bench.run_passes(jobs, seconds=args.seconds / 2)
    with tracer:
        traced = bench.run_passes(jobs, count=len(plain), tracer=tracer)
    out = bench.summarize(plain + traced)
    # The first pass runs cold and no traced pass does, so it is left out
    # of the comparison when there is another.
    plain_s = [bench.pass_seconds(p) for p in plain[1:] or plain]
    traced_s = [bench.pass_seconds(p) for p in traced]
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    out["layers"] = tracing.layer_metrics(tracer, traced_s, overhead)
    spans = HERE / "out" / ("spans-%s.tsv.gz" % args.workload)
    tracer.write(spans)
    out["spans_file"] = str(spans.relative_to(ROOT))
    out["spans"] = len(tracer.spans)
    out["traced_passes"] = len(traced)
    return out


# ---------------------------------------------------------------------------
# parent: spawn, collect, report
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.pop("RESLAT_BUDGET", None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(workload, seed, extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s child ran over %d s" % (workload, CHILD_TIMEOUT_S)) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s child exited with code %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, args):
    """One workload's run.  Traced: one child.  Untraced: one pass in each
    of a row of fresh children, while one more (as long as the last)
    still ends within --seconds; at least one.  Set-up is the median over
    those children and set-up-only ones, SETUP_REPEATS set-ups in all."""
    if args.trace:
        run = spawn(workload, args.seed, ["--seconds", str(args.seconds), "--trace", "1"])
    else:
        clock = time.perf_counter
        begin = clock()
        children = []
        while True:
            start = clock()
            children.append(spawn(workload, args.seed, []))
            now = clock()
            if now - begin + (now - start) > args.seconds:
                break
        setups = children + [spawn(workload, args.seed, ["--setup-only"])
                             for _ in range(SETUP_REPEATS - len(children))]
        run = bench.summarize([bench.Pass(c["jobs"], c["probes"]) for c in children])
        for key in ("setup_s", "wall_setup_s"):
            run[key] = statistics.median(s[key] for s in setups)
        run["setup_samples"] = len(setups)
        run["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in children)
        run["numpy"] = children[0]["numpy"]
    run["fail_ratio"] = run["failed"] / run["attempted"]
    return run


def git_commit():
    """HEAD from .git when the checkout has one (read directly, no git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload, run, args):
    print("%s  seed %d  %d pass(es) of %d jobs, %s  digest %s"
          % (workload, args.seed, run["passes"], run["jobs"],
             "in one process" if args.trace else "each in a fresh process", run["digest"][:16]))
    if args.trace:
        print("  %d of the passes traced, %d spans written to %s"
              % (run["traced_passes"], run["spans"], run["spans_file"]))
        for name, (value, unit) in run["layers"].items():
            print("  %-52s %14.6g %s" % (name, value, unit))
    else:
        print("  %d probes, median %.4f ms of CPU time against %.4f ms at reference speed"
              % (run["probes"], run["probe_ms"], run["probe_ref_ms"]))
        rows = [
            ("setup_s", run["setup_s"], "s", "median of %d set-ups; wall %.4f"
             % (run["setup_samples"], run["wall_setup_s"])),
            ("jobs_per_s", run["jobs_per_s"], "1/s", "jobs over summed job latency; wall %.4f"
             % run["wall_jobs_per_s"]),
            ("job_p50_ms", run["job_p50_ms"], "ms", "median job latency; wall %.4f"
             % run["wall_job_p50_ms"]),
            ("job_tail_ms", run["job_tail_ms"], "ms", "p%.2f over %d jobs, 10 beyond it; wall %.4f"
             % (run["tail_percentile"], run["jobs"], run["wall_job_tail_ms"])),
            ("fail_ratio", run["fail_ratio"], "-", "%d failed of %d attempted"
             % (run["failed"], run["attempted"])),
            ("peak_rss_mb", run["peak_rss_mb"], "MB", "ru_maxrss of a pass's process, median"),
        ]
        for name, value, unit, note in rows:
            print("  %-12s %12.4f %-4s %s" % (name, value, unit, note))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    if not (SRC / "reslat" / "__init__.py").is_file():
        raise BenchError("no reslat sources at %s" % SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        runs[name] = measure(name, args)
        report(name, runs[name], args)
    print("provenance: python %s, numpy %s, nproc %d, cpu %s %s, commit %s, seed %d"
          % (platform.python_version(), runs[names[0]]["numpy"], os.cpu_count(),
             platform.machine(), platform.processor() or "-", git_commit(), args.seed))
    metrics = {}
    for name, run in runs.items():
        prefix = "" if len(names) == 1 else name + "."
        if args.trace:
            items = [(k, v, u) for k, (v, u) in run["layers"].items()]
        else:
            items = [(k, run[k], u) for k, u in END_TO_END]
        for key, value, unit in items:
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(1)
