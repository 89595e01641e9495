"""Closed-loop job runner and the metrics derived from its passes.

One client runs the job list in order, each job starting when the last
returns.  A pass is one run over the whole list; every pass runs the
same jobs, and each job's output must hash the same in every pass.

Times are CPU seconds at reference speed.  The host this benchmark was
written on is a virtual machine whose speed is not its own: for minutes
at a time the hypervisor takes up to half of the wall time away, and the
speed of the CPU time that is left changes by up to two times, in spells
of a second or more.  Either would swamp a change to the program.  So
each job is timed in process CPU time, which leaves out the time taken
away.  And between jobs the runner times `probe`, a fixed piece of
pure-Python work that calls nothing in reslat: one probe for every
PROBE_GAP_S of wall time since the last ones, at most PROBE_BURST at
once, so that the probes sample the pass evenly.  A job's CPU time is
scaled by PROBE_REF_S over the median CPU time of the probes within
PROBE_WINDOW_S of it (of the whole pass, if fewer than PROBE_MIN are
that close): the time the job would take on a host where the probe takes
exactly PROBE_REF_S.  A change to reslat moves the jobs' times and not
the probe's, so it shows in full.  The wall times are kept beside, for
the report.
"""

import bisect
import gc
import hashlib
import statistics
import time
from collections import namedtuple

PROBE_GAP_S = 0.02
PROBE_BURST = 25
PROBE_WINDOW_S = 0.25
PROBE_MIN = 5
PROBE_REF_S = 0.001

# jobs: (wall seconds, CPU seconds at reference speed, ok, hash of label
# and output) per job; probes: the CPU seconds of each probe of the pass.
Pass = namedtuple("Pass", "jobs probes")

_N = 15
_TABLE = tuple(tuple((i * j + i + 2 * j) % _N for j in range(_N)) for i in range(_N))
_SEEN = set()
_COUNTS = {}


def _assoc(x, y, z):
    t = _TABLE
    return t[t[x][y]][z] == t[x][t[y][z]]


def probe():
    """Work shaped like reslat's inner loops, on a fixed 15-element table:
    an axiom checked as a predicate on every triple, a closure grown in a
    set, and keys counted in a dict.  About 1 ms at reference speed.  It
    creates no object the cyclic collector tracks (the set and dict are
    reused, and hold ints only), so it leaves the collector's counts as it
    found them, and the jobs' collections come where they would come
    without probes."""
    t = _TABLE
    bad = 0
    for x in range(_N):
        for y in range(_N):
            for z in range(_N):
                if not _assoc(x, y, z):
                    bad += 1
    seen = _SEEN
    seen.clear()
    seen.add(1)
    grown = True
    while grown:
        grown = False
        for e in range(_N):
            if e in seen:
                for x in range(_N):
                    if x in seen:
                        left, right = t[e][x], t[x][e]
                        if left not in seen:
                            seen.add(left)
                            grown = True
                        if right not in seen:
                            seen.add(right)
                            grown = True
    counts = _COUNTS
    counts.clear()
    for x in range(_N):
        for y in range(_N):
            key = 4 * t[x][y] + (x & 3)
            counts[key] = counts.get(key, 0) + 1
    return bad + len(seen) + len(counts)


def time_probe(cpu=time.process_time):
    """CPU seconds of one probe."""
    start = cpu()
    probe()
    return cpu() - start


def interquartile_mean(xs):
    xs = sorted(xs)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def reference_scale(samples, start, end, mids, fallback):
    """PROBE_REF_S over the median CPU seconds of the probe samples, each
    (wall-clock midpoint, CPU seconds), whose midpoints (`mids`) lie within
    PROBE_WINDOW_S of the wall-clock interval [start, end]; over
    `fallback` when fewer than PROBE_MIN do.  A median, so that the few
    probes that a reschedule makes several times slower do not move it."""
    lo = bisect.bisect_left(mids, start - PROBE_WINDOW_S)
    hi = bisect.bisect_right(mids, end + PROBE_WINDOW_S)
    if hi - lo < PROBE_MIN:
        return PROBE_REF_S / fallback
    return PROBE_REF_S / statistics.median(cpu_s for _, cpu_s in samples[lo:hi])


def _canon(x):
    """Output with sets sorted, so its repr is the same in every process."""
    if isinstance(x, (set, frozenset)):
        return sorted(_canon(v) for v in x)
    if isinstance(x, dict):
        return sorted((repr(k), _canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def output_hash(label, output):
    return hashlib.sha256(repr((label, _canon(output))).encode()).hexdigest()


def run_pass(jobs, tracer=None):
    """One pass.  A job that raises has failed; its exception is its output."""
    clock, cpu = time.perf_counter, time.process_time

    def sample():
        start = clock()
        cpu_s = time_probe(cpu)
        return (start + clock()) / 2, cpu_s

    samples = [sample()]
    last_probe = clock()
    timed = []
    for i, (label, fn) in enumerate(jobs):
        due = min(PROBE_BURST, int((clock() - last_probe) / PROBE_GAP_S))
        if due:
            samples.extend(sample() for _ in range(due))
            last_probe = clock()
        if tracer is not None:
            tracer.job = i
        # Each job starts from the same collector state, as a one-off
        # check would: what earlier jobs left is collected, and what they
        # keep (caches on the inputs) is moved out of the collector's view.
        # Otherwise a full collection lands on whichever job the
        # allocation counts of the jobs before it point to, and its cost
        # grows with what those jobs kept.
        gc.collect()
        gc.freeze()
        start, cpu_start = clock(), cpu()
        try:
            ok, output = fn()
        except Exception as exc:  # the job failed; record it and go on
            ok, output = False, "%s: %s" % (type(exc).__name__, exc)
        cpu_end, end = cpu(), clock()
        timed.append((start, end, cpu_end - cpu_start, bool(ok), output_hash(label, output)))
    samples.extend(sample() for _ in range(PROBE_MIN))
    mids = [m for m, _ in samples]
    whole = interquartile_mean(cpu_s for _, cpu_s in samples)
    return Pass(
        [(end - start, cpu_s * reference_scale(samples, start, end, mids, whole), ok, h)
         for start, end, cpu_s, ok, h in timed],
        [cpu_s for _, cpu_s in samples],
    )


def run_passes(jobs, seconds=None, count=None, tracer=None):
    """`count` whole passes, or, without a count, whole passes while one
    more (as long as the last) still ends within `seconds`; at least one."""
    clock = time.perf_counter
    begin = clock()
    passes = []
    while True:
        start = clock()
        passes.append(run_pass(jobs, tracer))
        now = clock()
        if len(passes) == count or (count is None and now - begin + (now - start) > seconds):
            return passes


def pass_seconds(p):
    """Summed job CPU time of a pass, at reference speed."""
    return sum(job[1] for job in p.jobs)


def summarize(passes):
    """End-to-end metrics over whole passes of one job list.

    A job's latency is the median over the passes of its CPU time at
    reference speed.  run.py
    gives each pass a fresh process, so that every pass runs its jobs for
    the first time, as a one-off check would: a job that runs again in
    the same process finds its memory already mapped and runs faster.
    The tail is the latency with 10 jobs beyond it.  A job fails when its
    predicate is false or its output differs from the first pass's.  The
    wall-time figures are kept beside, for the report."""
    first = passes[0]
    n = len(first.jobs)
    ref_hashes = [job[3] for job in first.jobs]
    failed = sum(
        1 for p in passes for job, ref in zip(p.jobs, ref_hashes) if not job[2] or job[3] != ref
    )
    tail_rank = max(n - 10, 1)
    out = {
        "jobs": n,
        "passes": len(passes),
        "attempted": n * len(passes),
        "failed": failed,
        "tail_percentile": 100 * tail_rank / n,
        "digest": hashlib.sha256("\n".join(ref_hashes).encode()).hexdigest(),
        "probes": sum(len(p.probes) for p in passes),
        "probe_ms": 1000 * statistics.median(statistics.median(p.probes) for p in passes),
        "probe_ref_ms": 1000 * PROBE_REF_S,
    }
    for prefix, col in (("", 1), ("wall_", 0)):
        per_job = sorted(statistics.median(p.jobs[i][col] for p in passes) for i in range(n))
        out[prefix + "jobs_per_s"] = n / sum(per_job)
        out[prefix + "job_p50_ms"] = 1000 * statistics.median(per_job)
        out[prefix + "job_tail_ms"] = 1000 * per_job[tail_rank - 1]
    return out
