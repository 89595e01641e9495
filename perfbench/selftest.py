"""Self-tests of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

1. The same seed gives the same job list and the same digest; another
   seed gives another job list.
2. A planted wrong result counts as a failure: an undetected fault, a
   wrong generic filter, a job that raises, and an output that changes
   between passes.
3. A seed not used while the benchmark was written runs every workload
   with no failed job.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402
from reslat import free, kripke, logic, spectra  # noqa: E402
from run import WORKLOADS  # noqa: E402

FRESH_SEED = 90817
SAMPLE = 40  # jobs per workload in the in-process checks


def check(cond, what):
    if not cond:
        raise SystemExit("FAIL %s" % what)
    print("ok   %s" % what)


def failures(jobs, passes=1):
    return bench.summarize([bench.run_pass(jobs) for _ in range(passes)])["failed"]


def same_seed_same_digest():
    for name in WORKLOADS:
        a, b = workloads.build(name, 5), workloads.build(name, 5)
        labels = [label for label, _ in a]
        check(labels == [label for label, _ in b], "%s: seed 5 twice gives one job list" % name)
        check(labels != [label for label, _ in workloads.build(name, 6)],
              "%s: seeds 5 and 6 give different job lists" % name)
        digest_a = bench.summarize([bench.run_pass(a[:SAMPLE])])["digest"]
        digest_b = bench.summarize([bench.run_pass(b[:SAMPLE])])["digest"]
        check(digest_a == digest_b, "%s: seed 5 twice gives one digest" % name)


def planted(module, attr, fake, jobs, what):
    real = getattr(module, attr)
    setattr(module, attr, fake)
    try:
        failed = failures(jobs)
    finally:
        setattr(module, attr, real)
    check(failed == len(jobs), "%s: all %d jobs fail" % (what, len(jobs)))
    check(failures(jobs) == 0, "%s: restored, no job fails" % what)


def planted_failures():
    def pick(name, prefix):
        return [j for j in workloads.build(name, 5) if j[0].startswith(prefix)][:20]

    planted(kripke, "detect_fault", lambda ksa, alg: False, pick("kripke", "fault"),
            "undetected fault")
    planted(logic, "generic_filter",
            lambda alg, inside, avoid=(), **kw: spectra.Filter(alg, range(alg.size)),
            pick("small-algebras", "generic"), "wrong generic filter")

    def boom(alg, b):
        raise RuntimeError("planted")

    planted(free, "decompose", boom, pick("free-congruence", "decompose"), "raising job")

    flip = iter(range(10 ** 6))
    unsteady = [("unsteady", lambda: (True, next(flip)))]
    check(failures(unsteady, passes=2) == 1, "output that changes between passes fails")


def fresh_seed_passes():
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(FRESH_SEED),
             "--seconds", "1"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300,
        )
        check(proc.returncode == 0, "%s: seed %d exits 0" % (name, FRESH_SEED))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(result["correct"] and result["failed"] == 0,
              "%s: seed %d, %d jobs, fail_ratio 0" % (name, FRESH_SEED, result["attempted"]))


if __name__ == "__main__":
    same_seed_same_digest()
    planted_failures()
    fresh_seed_passes()
    print("all benchmark self-tests passed")
