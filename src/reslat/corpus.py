"""The desk-scale verification corpus and its acceptance criteria.

Each criterion function returns a dict {name, passed, details, seconds};
run_all executes the lot and prints one pass/fail line per criterion.
The same code backs `reslat corpus run` and tests/test_acceptance.py.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from .algebra import (
    ChainSpec,
    FiniteAlgebra,
    Signature,
    check_class_axioms,
    core_reduct,
    first_valuation,
    is_homomorphism,
    make_chain,
    product,
    residuum_closed_form,
    subalgebra_generate,
)
from .amalgam import (
    CongruencePair,
    cp_extend,
    discriminator_check,
    enumerate_ideals,
    gratzer_schmidt_check,
    ideal_join_characterize,
    interpolant_search,
    principal_congruence_on,
)
from .errors import NoGenericPointError
from .free import (
    atoms,
    atomless_shadow_check,
    boolean_variety,
    free_algebra,
    free_product_decomposition_check,
    is_freely_generated_by,
)
from .kripke import (
    KripkeSystem,
    detect_fault,
    mutate_table,
    neat_reduct,
    random_kripke,
    set_algebra,
    verify_kripke,
)
from .logic import (
    _generic_among,
    expand,
    is_tautology,
    isolated_dense_check,
    join_of_atoms_is_one,
    parse,
    valuation_grid,
)
from .sheaf import dual_sheaf, eta_check, regular_ideals_open_sets, strongly_regular_equiv_check
from .spectra import (
    hausdorff_witness,
    nowhere_dense_check,
    verify_dm_lemma,
    zariski_sets,
)

CHAIN_SPECS = [ChainSpec(kind, n) for kind in ("lukasiewicz", "godel") for n in range(2, 7)]


def corpus_chains():
    return [make_chain(s) for s in CHAIN_SPECS]


def corpus_products():
    """Binary products of the builtin chains (unordered pairs, core signature)."""
    chains = [core_reduct(make_chain(s)) for s in CHAIN_SPECS]
    out = []
    for i in range(len(chains)):
        for j in range(i, len(chains)):
            out.append(product([chains[i], chains[j]]))
    return out


_cache = {}


def corpus_free(n):
    key = ("fr", n)
    if key not in _cache:
        _cache[key] = free_algebra(boolean_variety(), n)
    return _cache[key]


def corpus_algebras():
    """Chains (N <= 6), their binary products, Fr_1(BA) and Fr_2(BA)."""
    return (
        corpus_chains()
        + corpus_products()
        + [corpus_free(1).algebra, corpus_free(2).algebra]
    )


def _criterion(name):
    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            passed, details = fn()
            return {
                "name": name,
                "passed": passed,
                "details": details,
                "seconds": round(time.perf_counter() - t0, 2),
            }

        run.criterion_name = name
        return run

    return wrap


# 1 -------------------------------------------------------------------------


@_criterion("1 axiom suites on chains")
def criterion_1():
    details = []
    ok = True
    for n in range(2, 7):
        alg = make_chain(ChainSpec("lukasiewicz", n))
        for cls in ("residuated-lattice", "bl", "mv"):
            r = check_class_axioms(alg, cls)
            ok &= r.passed
            if not r.passed:
                details.append((alg.name, cls, r.violations[:1]))
    for n in range(3, 7):
        alg = make_chain(ChainSpec("godel", n))
        for cls in ("residuated-lattice", "bl"):
            r = check_class_axioms(alg, cls)
            ok &= r.passed
            if not r.passed:
                details.append((alg.name, cls, r.violations[:1]))
        r = check_class_axioms(alg, "mv")
        w = r.witness("mv7-double-neg")
        neg_ok = False
        if w is not None:
            a = w[0]
            na = alg.imp(a, alg.zero)
            neg_ok = alg.imp(na, alg.zero) != a
        ok &= (not r.passed) and neg_ok
        if r.passed or not neg_ok:
            details.append((alg.name, "mv-should-fail", r.violations[:1]))
    return ok, details or "luk 2..6 pass rl/bl/mv; godel 3..6 pass rl/bl, fail mv at double negation"


# 2 -------------------------------------------------------------------------


@_criterion("2 residuum closed form == brute-force oracle, grids 1/2..1/64")
def criterion_2():
    for k in range(2, 65):
        i, l = np.ogrid[: k + 1, : k + 1]
        for kind in ("lukasiewicz", "godel"):
            # independent oracle on the 1/k grid: the t-norm star[i, l], and
            # imp[i, j], the first l with star[i, l] <= j in a descending scan
            star = np.maximum(0, i + l - k) if kind == "lukasiewicz" else np.minimum(i, l)
            below = star[:, None, ::-1] <= np.arange(k + 1)[:, None]
            imp = k - below.argmax(axis=2)
            chain = make_chain(ChainSpec(kind, k + 1))
            for name, want in (("star", star), ("imp", imp)):
                bad = np.argwhere(chain.np_table(name) != want)
                if len(bad):
                    x, y = bad[0].tolist()
                    return False, (kind, k, name, x, y, chain.apply(name, x, y), int(want[x, y]))
            for (x, y), z in zip(iproduct(range(k + 1), repeat=2), imp.ravel().tolist()):
                closed = residuum_closed_form(kind, Fraction(x, k), Fraction(y, k))
                if closed != Fraction(z, k):
                    return False, (kind, k, x, y, str(closed), z)
    return True, "exact equality on all grids"


# 3 -------------------------------------------------------------------------


@_criterion("3 free Boolean algebras: sizes, atoms, product decomposition")
def criterion_3():
    details = {}
    ok = True
    for n, size, natoms in ((1, 4, 2), (2, 16, 4), (3, 256, 8)):
        fr = corpus_free(n)
        got_atoms = len(atoms(fr.algebra))
        freely = is_freely_generated_by(fr, fr.generators)
        details["Fr_%d" % n] = (fr.size, got_atoms, freely)
        ok &= fr.size == size and got_atoms == natoms and freely
    ba = boolean_variety()
    for n in (1, 2):
        iso_ok, mapping = free_product_decomposition_check(ba, n)
        prod = product([corpus_free(n).algebra, corpus_free(n).algebra])
        verified = (
            iso_ok
            and mapping is not None
            and len(set(mapping)) == prod.size
            and is_homomorphism(corpus_free(n + 1).algebra, prod, mapping)
        )
        details["Fr_%dxFr_%d~=Fr_%d" % (n, n, n + 1)] = verified
        ok &= verified
    return ok, details


# 4 -------------------------------------------------------------------------


@_criterion("4 atomless shadow in Fr_2 and Fr_3")
def criterion_4():
    for n in (2, 3):
        held, witness = atomless_shadow_check(boolean_variety(), n)
        if not held:
            return False, (n, witness)
    return True, "every nonzero element of the small subalgebra splits over the last generator"


# 5 -------------------------------------------------------------------------


@_criterion("5 spectra laws on the corpus")
def criterion_5():
    details = []
    ok = True
    for alg in corpus_algebras():
        subset_size = 2 if alg.size <= 12 else 1
        space = zariski_sets(alg, bound=64)
        report = verify_dm_lemma(alg, space=space, subset_size=subset_size, bound=64)
        if not report.passed:
            ok = False
            details.append((alg.name, report.failed_ids()))
            continue
        maxes = space.max_points
        for i in range(len(maxes)):
            for j in range(i + 1, len(maxes)):
                try:
                    hausdorff_witness(alg, maxes[i], maxes[j], space)
                except Exception as exc:  # genuine failure, report it
                    ok = False
                    details.append((alg.name, "hausdorff", i, j, str(exc)))
        empty, witness = nowhere_dense_check(alg, space)
        if not empty:
            ok = False
            details.append((alg.name, "residual-not-empty", witness))
    return ok, details or "dm lemma + hausdorff witnesses + empty residuals on %d algebras" % len(
        corpus_algebras()
    )


# 6 -------------------------------------------------------------------------


@_criterion("6 theory-pair completion engine, 1000 seeded pairs")
def criterion_6():
    from .spectra import TheoryPair, pair_consistent, pair_complete_extension

    algs = corpus_algebras()
    rng = random.Random(20260810)
    done = 0
    attempts = 0
    while done < 1000 and attempts < 20000:
        attempts += 1
        alg = algs[rng.randrange(len(algs))]
        size = alg.size
        gamma = frozenset(rng.sample(range(size), rng.randint(0, min(3, size))))
        delta = frozenset(rng.sample(range(size), rng.randint(0, min(3, size))))
        tp = TheoryPair(alg, gamma, delta)
        if not pair_consistent(tp):
            continue
        full, steps = pair_complete_extension(tp, record_steps=True)
        if not full.is_complete():
            return False, ("incomplete", alg.name, sorted(gamma), sorted(delta))
        if not pair_consistent(full):
            return False, ("inconsistent", alg.name, sorted(gamma), sorted(delta))
        for a, side, g_ok, d_ok in steps:
            if not (g_ok or d_ok):
                return False, ("dichotomy", alg.name, a)
        done += 1
    if done < 1000:
        return False, "only %d consistent pairs drawn" % done
    return True, "1000 completions verified (completeness, consistency, step dichotomy)"


# 7 -------------------------------------------------------------------------


@_criterion("7 Kripke equational theory, 100 seeded systems + fault injection")
def criterion_7():
    reducts = 0
    for seed in range(100):
        _, ksa = random_kripke(seed, 3, 3, 3)
        for suite, passed, _ in verify_kripke(ksa):
            if not passed:
                return False, (suite[0], seed) + suite[1:]
        for mask in range(1 << ksa.alpha):
            J = [j for j in range(ksa.alpha) if mask >> j & 1]
            reduct, witness = neat_reduct(ksa.algebra, J)
            if reduct is None:
                return False, ("neat-reduct-not-closed", seed, J, witness)
            reducts += 1
        c_every = ksa.unary[len(ksa.G.maps) + (1 << ksa.alpha)]  # the last c row: c_(J), J every index
        held, violations = discriminator_check(ksa.algebra, c_every)
        if not held:
            return False, ("not-a-discriminator", seed, violations[0])
    # exhaustive single-entry fault injection on the canonical instance
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    alg = ksa.algebra
    injected = 0
    for name, ar in alg.signature.ops:
        t = alg.cells[name]
        if ar == 0:
            faults = [((), v) for v in range(alg.size) if v != t]
        else:
            faults = [(pos, (t[pos] + 1) % alg.size) for pos in iproduct(range(alg.size), repeat=ar)]
        for pos, v in faults:
            injected += 1
            if not detect_fault(ksa, mutate_table(alg, name, pos, v)):
                return False, ("fault-missed", name, pos, v)
    return True, (
        "100 systems pass all suites, their %d neat reducts are closed and c over every index "
        "meets the discriminator schemata; %d injected faults all detected" % (reducts, injected)
    )


# 8 -------------------------------------------------------------------------


def _coordinate_closure_product(algs):
    """Product with one extra operator closing each coordinate (0 or top).

    Element e of `product` has coordinate e // stride % size in a factor
    of that size, stride being the product of the later factors' sizes."""
    prod = product(algs)
    e, stride, closed = np.arange(prod.size), prod.size, 0
    for a in algs:
        stride //= a.size
        closed = closed + np.where(e // stride % a.size == a.zero, 0, a.one) * stride
    sig = Signature(prod.signature.ops + (("c_0", 1),))
    tables = dict(prod.tables, c_0=closed)
    return FiniteAlgebra(
        prod.name + "+closure", prod.size, sig, tables, labels=prod.labels
    )


@_criterion("8 sheaf duality: eta iso, stalks ~= factors, regular ideals <-> opens")
def criterion_8():
    from .algebra import iso_check, lattice_reduct

    details = []
    ok = True
    for alg in corpus_algebras():
        sheaf = dual_sheaf(alg)
        good, info = eta_check(alg, sheaf)
        if not good:
            ok = False
            details.append((alg.name, "eta", info))
            continue
        rio = regular_ideals_open_sets(alg, sheaf)
        if not rio["isomorphism"]:
            ok = False
            details.append((alg.name, "regular-ideals", rio))
    l2 = make_chain(ChainSpec("lukasiewicz", 2))
    ba4 = product([l2, l2])
    pc = _coordinate_closure_product([l2, ba4])
    sheaf = dual_sheaf(pc)
    good, _ = eta_check(pc, sheaf)
    ok &= good
    factors = [lattice_reduct(l2), lattice_reduct(ba4)]
    matched = []
    for q in sheaf.stalks:
        hit = None
        for i, f in enumerate(factors):
            if q.size == f.size and iso_check(lattice_reduct(q), f) is not None:
                hit = i
        matched.append(hit)
    if sorted(m for m in matched if m is not None) != [0, 1]:
        ok = False
        details.append(("coordinate-product", "stalks", matched))
    rio = regular_ideals_open_sets(pc, sheaf)
    ok &= rio["isomorphism"]
    return ok, details or "eta iso + ideal/open correspondence on %d algebras; stalks match factors" % (
        len(corpus_algebras()) + 1
    )


# 9 -------------------------------------------------------------------------


@_criterion("9 interpolation on Fr_3 and congruence pairs on Fr_2")
def criterion_9():
    fr3 = corpus_free(3)
    alg = fr3.algebra
    g0, g1, g2 = fr3.generators
    sg1 = subalgebra_generate(alg, [g0, g1])
    sg2 = subalgebra_generate(alg, [g1, g2])
    common = subalgebra_generate(alg, [g1])
    checked = 0
    for x in sorted(sg1):
        for z in np.flatnonzero(alg.order[x]).tolist():
            if z not in sg2:
                continue
            found = interpolant_search(alg, [g0, g1], [g1, g2], x, z)
            if found is None or found[0] not in common or found[1] != 1:
                return False, ("no-interpolant", x, z, found)
            checked += 1
    fr2 = corpus_free(2)
    alg2 = fr2.algebra
    h0, h1 = fr2.generators
    s1 = sorted(subalgebra_generate(alg2, [h0]))
    s2 = sorted(subalgebra_generate(alg2, [h1]))
    cons1 = sorted(
        {principal_congruence_on(alg2, s1, [(a, b)]) for a in s1 for b in s1}
    )
    cons2 = sorted(
        {principal_congruence_on(alg2, s2, [(a, b)]) for a in s2 for b in s2}
    )
    pairs = 0
    for r in cons1:
        for s in cons2:
            pair = CongruencePair(alg2, (h0,), (h1,), r, s)
            if not pair.agrees():
                continue
            if cp_extend(pair) is None:
                return False, ("cp-extend-failed", r, s)
            pairs += 1
    return True, "%d interpolation pairs, %d agreeing congruence pairs extended" % (
        checked,
        pairs,
    )


# 10 ------------------------------------------------------------------------


@_criterion("10 generic filters equal the exhaustive oracle, 500 seeded instances")
def criterion_10():
    algs = [a for a in corpus_algebras() if a.size <= 64]
    rng = random.Random(42)
    spaces = {}
    errors_fired = 0
    for trial in range(500):
        alg = algs[rng.randrange(len(algs))]
        if alg.name not in spaces:
            spaces[alg.name] = zariski_sets(alg, bound=64)
        space = spaces[alg.name]
        maxes = space.max_points
        a = rng.randrange(1, alg.size)
        if a == alg.zero:
            a = alg.one
        n_avoid = rng.randint(0, 2)
        avoid = []
        for _ in range(n_avoid):
            k = rng.randint(0, len(maxes))
            avoid.append([maxes[i] for i in sorted(rng.sample(range(len(maxes)), k))])
        banned = set()
        for entry in avoid:
            for f in entry:
                banned.add(f.members)
        admissible = [
            f for f in maxes if a in f.members and f.members not in banned
        ]
        if admissible:
            oracle = min(admissible, key=lambda f: f.bitmask())
            got = _generic_among(alg, maxes, a, avoid)
            if got.members != oracle.members:
                return False, (alg.name, a, sorted(oracle.members), sorted(got.members))
        else:
            try:
                _generic_among(alg, maxes, a, avoid)
                return False, ("missing-error", alg.name, a)
            except NoGenericPointError:
                errors_fired += 1
    return True, "500 instances match the oracle; %d empty cases raised" % errors_fired


# 11 ------------------------------------------------------------------------


def _random_formula(rng, depth, vars_):
    from .logic import Bin, Konst, Neg, Var

    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(len(vars_) + 2)
        if pick < len(vars_):
            return Var(vars_[pick])
        return Konst(pick - len(vars_))
    if rng.random() < 0.2:
        return Neg(_random_formula(rng, depth - 1, vars_))
    op = rng.choice(["&", "->", "/\\", "\\/", "<->"])
    return Bin(
        op,
        _random_formula(rng, depth - 1, vars_),
        _random_formula(rng, depth - 1, vars_),
    )


def _first_differences(chains, f):
    """Per chain, the first (a, b) in product order where f(p0, p1) !=
    expand(f), or None; f and its expansion are each compiled once."""
    pair, out = (f, expand(f)), []
    for chain in chains:
        chunks = valuation_grid(chain, ("p0", "p1"), formulas=pair)
        firsts = (first_valuation(grid, mask & (x != y)) for grid, mask, (x, y) in chunks)
        out.append(next((p for p in firsts if p is not None), None))
    return out


@_criterion("11 logic frontend: tautologies and derived-connective coherence")
def criterion_11():
    taut, _ = is_tautology(
        parse("(p0 -> p1) \\/ (p1 -> p0)"), CHAIN_SPECS
    )
    if not taut:
        return False, "prelinearity failed"
    failed, witness = is_tautology(parse("p0 \\/ ~p0"), [ChainSpec("lukasiewicz", 3)])
    if failed or witness[1] != {"p0": "1/2"}:
        return False, ("excluded-middle", witness)
    # coherence: the per-connective identities make coherence compositional
    # for formulas of every depth; spot-check with seeded deep formulas too
    rng = random.Random(7)
    texts = ("p0 /\\ p1", "p0 \\/ p1", "~p0", "p0 <-> p1")
    formulas = [parse(t) for t in texts]
    formulas += [_random_formula(rng, 4, ["p0", "p1"]) for _ in range(2000)]
    specs = (ChainSpec("lukasiewicz", 3), ChainSpec("godel", 3))
    chains = [make_chain(spec) for spec in specs]
    # formula by formula, so that each is compiled once for both chains;
    # failures are still reported chain by chain, connectives first
    found = [_first_differences(chains, f) for f in formulas]
    for c, spec in enumerate(specs):
        at = {t: row[c] for t, row in zip(texts, found)}
        text = min(filter(at.get, at), key=at.get, default=None)  # the first (a, b), then connective
        if text:
            return False, ("connective", str(spec), text, *at[text])
        for f, row in zip(formulas[len(texts):], found[len(texts):]):
            if row[c] is not None:
                return False, ("formula", str(spec), str(f), *row[c])
    return True, "prelinearity, luk:3 counter-valuation, coherence (per-connective + 2000 seeded depth-4 formulas)"


# 12 ------------------------------------------------------------------------


@_criterion("12 type density, Gratzer-Schmidt, strong regularity, ideal joins, atom joins")
def criterion_12():
    algs, details, complemented, pairs, boolean = corpus_algebras(), [], 0, 0, 0
    for alg in algs:
        dense, witness = isolated_dense_check(alg, bound=64)
        if not dense:
            details.append((alg.name, "isolated-not-dense", witness))
        if not gratzer_schmidt_check(alg, bound=64)["biconditional"]:
            details.append((alg.name, "gratzer-schmidt"))
        regular = strongly_regular_equiv_check(alg)
        complemented += "skipped" not in regular
        if not regular.get("equivalent", True):
            details.append((alg.name, "strong-regularity", regular))
        ideals = enumerate_ideals(alg, bound=64)
        pairs += len(ideals) ** 2
        bad = [(sorted(m), sorted(n)) for m in ideals for n in ideals if not ideal_join_characterize(alg, m, n)]
        if bad:
            details.append((alg.name, "ideal-join", bad[0]))
        is_boolean = check_class_axioms(alg, "boolean").passed
        boolean += is_boolean
        if join_of_atoms_is_one(alg) != is_boolean:
            details.append((alg.name, "join-of-atoms", is_boolean))
    return not details, details or (
        "on %d algebras: isolated types dense; Gratzer-Schmidt biconditional on all %d; "
        "strong regularity's three forms agree on the %d relatively complemented; "
        "Ig(M u N) described on %d ideal pairs; atoms join to 1 exactly on the %d Boolean"
        % (len(algs), len(algs), complemented, pairs, boolean)
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(out=print):
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        out(
            "%s  %s  (%.2fs)"
            % ("PASS" if res["passed"] else "FAIL", res["name"], res["seconds"])
        )
        if not res["passed"]:
            out("      %s" % (res["details"],))
    return results
