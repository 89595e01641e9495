"""In-memory span tracing around reslat's public layer functions.

`Tracer.install()` replaces each traced function, in its defining module
and in every reslat module that imported it by name, with a wrapper that
records one span: (function, start, end, parent span, job), with start
and end read from the process CPU clock, as the jobs are timed.  A call made
while the same function is already running (recursion) joins the outer
span.  Counters at the same boundaries turn results into work counts.
`uninstall()` restores the originals.  Nothing in reslat is edited.
"""

import functools
import gzip
import importlib
import sys
import time
from collections import Counter

# layer -> public functions timed in that layer
TRACED = {
    "algebra": ("check_class_axioms", "product", "is_homomorphism", "subalgebra_generate"),
    "kripke": (
        "random_kripke",
        "verify_derived_identities",
        "verify_gpha_axioms",
        "verify_heyting_quantifiers",
        "verify_diagonal_equivalence_shadow",
        "mutate_table",
        "detect_fault",
    ),
    "free": (
        "free_algebra",
        "free_product_decomposition_check",
        "universal_property_holds",
        "atomless_shadow_check",
        "decompose",
    ),
    "spectra": ("zariski_sets", "verify_dm_lemma", "hausdorff_witness", "pair_complete_extension"),
    "amalgam": ("cp_extend", "principal_congruence_on", "interpolant_search"),
    "sheaf": ("dual_sheaf", "eta_check", "regular_ideals_open_sets"),
    "logic": ("generic_filter", "is_tautology", "eval_formula"),
}

SPAN_NAMES = tuple("%s.%s" % (layer, fn) for layer, fns in TRACED.items() for fn in fns)

# Arity profile of each check_class_axioms suite: n**arity tuples per axiom
# bound the work of one call (the checker stops an axiom at its first witness).
_RL = (2, 2, 3, 3, 2, 2, 1, 1) + (2, 3, 1) + (3,)
SUITE_ARITIES = {
    "residuated-lattice": _RL,
    "bl": _RL + (2, 2),
    "heyting": _RL + (2,),
    "boolean": _RL + (2, 1),
    "mv": (2, 2, 3, 3, 1, 1, 1, 1, 1, 1, 2, 2, 1, 0, 2),
}


def _count_axiom_tuples(c, args, out):
    c["algebra.axiom_tuples"] += sum(args[0].size ** k for k in SUITE_ARITIES[args[1]])


def _count_kripke_built(c, args, out):
    alg = out[1].algebra
    c["kripke.elements_built"] += alg.size
    c["kripke.table_entries"] += sum(alg.size ** arity for _, arity in alg.signature.ops)


def _count_detected(c, args, out):
    c["kripke.faults_detected"] += bool(out)


def _count_interpolant(c, args, out):
    c["amalgam.interpolant_attempts"] += 1
    c["amalgam.interpolants_found"] += out is not None


def _count_filters(c, args, out):
    c["spectra.filters_found"] += len(out.prime_points) + len(out.max_points)


# span name -> counter update from (counts, args, result), made after the call
COUNTERS = {
    "algebra.check_class_axioms": _count_axiom_tuples,
    "kripke.random_kripke": _count_kripke_built,
    "kripke.mutate_table": lambda c, args, out: c.update(("kripke.faults_injected",)),
    "kripke.detect_fault": _count_detected,
    "free.free_algebra": lambda c, args, out: c.update({"free.elements_built": out.size}),
    "spectra.zariski_sets": _count_filters,
    "amalgam.interpolant_search": _count_interpolant,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name index, start, end, parent span or -1, job index)
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self):
        reslat_modules = [m for n, m in list(sys.modules.items()) if n.startswith("reslat")]
        for idx, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".")
            orig = getattr(importlib.import_module("reslat." + layer), fn_name)
            wrapper = self._wrap(idx, orig, COUNTERS.get(name))
            for mod in reslat_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def _wrap(self, idx, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.process_time
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = False
                spans[me] = (idx, start, end, parent, self.job)
            if count is not None and self.job >= 0:
                count(counts, args, out)
            return out

        return traced

    def self_times(self, setup=False):
        """name -> (summed self time in s, call count) over the spans of
        jobs, or with setup=True over the spans made outside any job."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = [0.0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for i, (idx, start, end, _, job) in enumerate(self.spans):
            if (job < 0) == setup:
                busy[idx] += end - start - child[i]
                calls[idx] += 1
        return {name: (busy[i], calls[i]) for i, name in enumerate(SPAN_NAMES)}

    def write(self, path):
        """All spans as gzipped TSV: index, name, start, end, parent span, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (idx, start, end, parent, job) in enumerate(self.spans):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (i, SPAN_NAMES[idx], start, end, parent, job))


def layer_metrics(tracer, pass_seconds, overhead):
    """Per-layer metrics, {name: [value, unit]}, from a tracer that saw
    the set-up and then len(pass_seconds) identical passes.  Times, calls
    and counts are per pass; a share is the layer's self time over the
    job time; <layer>.setup_busy_s is its self time during set-up."""
    k = len(pass_seconds)
    m = {}
    share = dict.fromkeys(TRACED, 0.0)
    for name, (busy, calls) in tracer.self_times().items():
        m[name + ".busy_s"] = [busy / k, "s"]
        m[name + ".calls"] = [calls / k, "count"]
        share[name.split(".")[0]] += busy
    setup = dict.fromkeys(TRACED, 0.0)
    for name, (busy, _) in tracer.self_times(setup=True).items():
        setup[name.split(".")[0]] += busy
    for layer in TRACED:
        m[layer + ".share"] = [share[layer] / sum(pass_seconds), "ratio"]
        m[layer + ".setup_busy_s"] = [setup[layer], "s"]
    c = tracer.counts
    for name in ("algebra.axiom_tuples", "kripke.elements_built", "kripke.table_entries",
                 "kripke.faults_injected", "free.elements_built", "spectra.filters_found"):
        m[name] = [c[name] / k, "count"]
    injected, attempts = c["kripke.faults_injected"], c["amalgam.interpolant_attempts"]
    m["kripke.faults_detected"] = [c["kripke.faults_detected"] / injected if injected else 0.0, "ratio"]
    m["amalgam.interpolants_found"] = [c["amalgam.interpolants_found"] / attempts if attempts else 0.0, "ratio"]
    m["trace.overhead"] = [overhead, "ratio"]
    return m
