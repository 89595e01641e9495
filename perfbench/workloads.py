"""The three workloads: inputs built from a seed, and one job per task.

`build(name, seed)` returns the job list.  A job is (label, fn); fn()
calls reslat's public API and returns (ok, output): ok is the job's
correctness predicate, output is what goes into the run digest.  Jobs
share no work with each other, except the read-only inputs built here.
Reslat functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

import random
from functools import partial

from reslat import algebra as A
from reslat import amalgam as M
from reslat import errors as E
from reslat import free as F
from reslat import kripke as K
from reslat import logic as L
from reslat import sheaf as H
from reslat import spectra as S

CHAIN_SPECS = tuple(A.ChainSpec(kind, n) for kind in ("lukasiewicz", "godel") for n in range(2, 7))
CLASSES = ("residuated-lattice", "bl", "mv", "heyting")
# Dedekind numbers: |Fr_n(DL)| with bounds
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168}


def build(name, seed):
    rng = random.Random("%s/%d" % (name, seed))
    if name == "kripke":
        return kripke_jobs(rng, seed)
    return {"small-algebras": small_jobs, "free-congruence": free_jobs}[name](rng)


def interleave(*groups):
    """Merge job groups, spreading each group's jobs evenly over the pass,
    so that every kind of job meets the host at every point of the pass."""
    keyed = [((k + 0.5) / len(g), i, job) for i, g in enumerate(groups) for k, job in enumerate(g)]
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# kripke: criterion 7
# ---------------------------------------------------------------------------

# The second half of criterion 7's systems, and a third of its faults: 9
# systems of 512 elements and 3 of 256 set the tail.  All of criterion 7
# takes about 20 s when the host is fast and three times that when it is
# slow; this part takes 13 to 16 s, so a run has room for two passes.
KRIPKE_SYSTEMS = range(50, 100)


def kripke_jobs(rng, seed):
    """Criterion 7's systems 50..99, spread among a third of the
    single-entry faults of the 16-element canonical set algebra: the
    entries, and the wrong values of each constant, whose index sum is
    congruent to the seed mod 3.  Each entry gets one wrong value drawn
    from the seed; three seeds of different residues cover all 1,242."""
    system = K.KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = K.set_algebra(system, with_diagonals=True)
    alg = ksa.algebra
    n = alg.size
    faults = []
    for name, arity in alg.signature.ops:
        t = alg.tables[name]
        if arity == 0:
            entries = [((), v) for v in range(n) if v != t and (v - seed) % 3 == 0]
        elif arity == 1:
            entries = [((i,), _other(rng, n, t[i])) for i in range(n) if (i - seed) % 3 == 0]
        else:
            entries = [((i, j), _other(rng, n, t[i][j]))
                       for i in range(n) for j in range(n) if (i + j - seed) % 3 == 0]
        for pos, v in entries:
            faults.append(("fault %s%s=%d" % (name, pos, v), partial(_fault, ksa, name, pos, v)))
    systems = [("system %d" % s, partial(_kripke_system, s)) for s in KRIPKE_SYSTEMS]
    return interleave(systems, faults)


def _other(rng, n, v):
    return (v + rng.randrange(1, n)) % n


def _kripke_system(seed):
    _, ksa = K.random_kripke(seed, 3, 3, 3)
    verdicts = [
        K.verify_derived_identities(ksa).passed,
        K.verify_gpha_axioms(ksa).passed,
        *(K.verify_heyting_quantifiers(ksa, j).passed for j in range(ksa.alpha)),
        K.verify_diagonal_equivalence_shadow(ksa)[0],
    ]
    return all(verdicts), (ksa.algebra.size, ksa.alpha, verdicts)


def _fault(ksa, name, pos, v):
    detected = K.detect_fault(ksa, K.mutate_table(ksa.algebra, name, pos, v))
    return detected is True, detected


# ---------------------------------------------------------------------------
# small-algebras: criteria 1, 5, 6, 8, 10, 11
# ---------------------------------------------------------------------------


def corpus():
    """(algebra, expected class verdicts): the chains, their binary
    products and Fr_1, Fr_2 over BA.  A product lies in a variety iff both
    factors do."""
    chains = []
    for spec in CHAIN_SPECS:
        luk = spec.kind == "lukasiewicz"
        expect = {"residuated-lattice": True, "bl": True, "mv": luk or spec.size == 2,
                  "heyting": not luk or spec.size == 2}
        chains.append((A.make_chain(spec), expect))
    out = list(chains)
    cores = [(A.core_reduct(c), e) for c, e in chains]
    for i in range(len(cores)):
        for j in range(i, len(cores)):
            (a, ea), (b, eb) = cores[i], cores[j]
            out.append((A.product([a, b]), {c: ea[c] and eb[c] for c in CLASSES}))
    ba = F.boolean_variety()
    for n in (1, 2):
        out.append((F.free_algebra(ba, n).algebra, dict.fromkeys(CLASSES, True)))
    return out


def small_jobs(rng):
    """Per algebra: its class suites, spectra and sheaf jobs, two seeded
    generic-filter queries and two seeded theory pairs.  Then seeded
    formulas: 60 tautology jobs, and 60 coherence jobs, 6 on each chain."""
    suites, spectra, sheaves, generic, pairs = [], [], [], [], []
    for alg, expect in corpus():
        suites.append(("suites %s" % alg.name, partial(_suites, alg, expect)))
        spectra.append(("spectra %s" % alg.name, partial(_spectra, alg)))
        sheaves.append(("sheaf %s" % alg.name, partial(_sheaf, alg)))
        maxes = S.enumerate_filters(alg, "maximal", bound=64)
        generic += [_generic_filter_job(rng, alg, maxes) for _ in range(2)]
        pairs += [_pair_job(rng, alg) for _ in range(2)]
    taut = []
    for k in range(60):
        f = random_formula(rng, 4)
        a, b = random_formula(rng, 2), random_formula(rng, 2)
        prelinear = L.Bin("\\/", L.Bin("->", a, b), L.Bin("->", b, a))
        taut.append(("taut %d" % k, partial(_tautology, f, prelinear)))
    coherence = []
    for k in range(60):
        f = random_formula(rng, 4)
        spec = CHAIN_SPECS[k % len(CHAIN_SPECS)]
        coherence.append(("coherence %d %s" % (k, spec), partial(_coherence, f, A.make_chain(spec))))
    return interleave(suites, spectra, sheaves, generic, pairs, taut, coherence)


def random_formula(rng, depth, names=("p0", "p1")):
    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(len(names) + 2)
        return L.Var(names[pick]) if pick < len(names) else L.Konst(pick - len(names))
    if rng.random() < 0.2:
        return L.Neg(random_formula(rng, depth - 1, names))
    op = rng.choice(["&", "->", "/\\", "\\/", "<->"])
    return L.Bin(op, random_formula(rng, depth - 1, names), random_formula(rng, depth - 1, names))


def _suites(alg, expect):
    reports = [A.check_class_axioms(alg, cls) for cls in CLASSES]
    ok = all(r.passed == expect[r.class_checked] for r in reports)
    return ok, [(r.class_checked, r.violations) for r in reports]


def _spectra(alg):
    space = S.zariski_sets(alg, bound=64)
    subset_size = 2 if alg.size <= 12 else 1
    lemma = S.verify_dm_lemma(alg, space=space, subset_size=subset_size, bound=64)
    maxes = space.max_points
    witnesses = []
    ok = lemma.passed
    for i in range(len(maxes)):
        for j in range(i + 1, len(maxes)):
            a, b = S.hausdorff_witness(alg, maxes[i], maxes[j], space)
            ok &= i in space.DM(a) and j in space.DM(b) and not space.DM(a) & space.DM(b)
            witnesses.append((a, b))
    return ok, (len(space.prime_points), len(maxes), lemma.violations, witnesses)


def _sheaf(alg):
    sheaf = H.dual_sheaf(alg)
    eta_ok, info = H.eta_check(alg, sheaf)
    rio = H.regular_ideals_open_sets(alg, sheaf)
    return eta_ok and rio["isomorphism"], (len(sheaf.points), info, rio)


def _generic_filter_job(rng, alg, maxes):
    """Criterion 10: the generic filter is the least-bitmask admissible
    maximal filter, or NoGenericPointError when none is admissible."""
    a = rng.randrange(1, alg.size)
    if a == alg.zero:
        a = alg.one
    avoid = []
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(0, len(maxes))
        avoid.append([maxes[i] for i in sorted(rng.sample(range(len(maxes)), k))])
    banned = {f.members for entry in avoid for f in entry}
    admissible = [f for f in maxes if a in f.members and f.members not in banned]
    expected = min(admissible, key=lambda f: f.bitmask()).members if admissible else None
    label = "generic %s a=%d avoid=%s" % (alg.name, a, [len(e) for e in avoid])
    return label, partial(_generic_filter, alg, a, avoid, expected)


def _generic_filter(alg, a, avoid, expected):
    try:
        got = L.generic_filter(alg, a, avoid, bound=64).members
    except E.NoGenericPointError:
        got = None
    return got == expected, sorted(got) if got is not None else None


def _pair_job(rng, alg):
    """Criterion 6: a random consistent theory pair of at most 3 + 3 elements."""
    while True:
        gamma = rng.sample(range(alg.size), rng.randint(0, min(3, alg.size)))
        delta = rng.sample(range(alg.size), rng.randint(0, min(3, alg.size)))
        tp = S.TheoryPair(alg, gamma, delta)
        if S.pair_consistent(tp):
            return "pair %s %s|%s" % (alg.name, sorted(gamma), sorted(delta)), partial(_pair, tp)


def _pair(tp):
    full, steps = S.pair_complete_extension(tp, record_steps=True)
    ok = (
        full.is_complete()
        and S.pair_consistent(full)
        and tp.gamma <= full.gamma
        and tp.delta <= full.delta
        and all(g_ok or d_ok for _, _, g_ok, d_ok in steps)
    )
    return ok, (sorted(full.gamma), sorted(full.delta))


def _tautology(f, prelinear):
    """A prelinearity instance holds in every chain; f and its expansion
    into & and -> get the same verdict and counter-valuation."""
    prelinear_result = L.is_tautology(prelinear, CHAIN_SPECS)
    result = L.is_tautology(f, CHAIN_SPECS)
    return prelinear_result == (True, None) and L.is_tautology(L.expand(f), CHAIN_SPECS) == result, result


def _coherence(f, chain):
    g = L.expand(f)
    values = []
    ok = True
    for a in range(chain.size):
        for b in range(chain.size):
            v = {"p0": a, "p1": b}
            x = L.eval_formula(f, chain, v)
            ok &= x == L.eval_formula(g, chain, v)
            values.append(x)
    return ok, values


# ---------------------------------------------------------------------------
# free-congruence: criteria 3, 4, 9
# ---------------------------------------------------------------------------


def free_jobs(rng):
    ba, dl = F.boolean_variety(), F.distributive_lattice_variety()
    fr = {n: F.free_algebra(ba, n) for n in (1, 2, 3)}
    structures = [("Fr_%d(BA)" % n, partial(_free_ba, ba, n)) for n in (1, 2, 3)]
    structures += [("Fr_%d(DL)" % n, partial(_free_dl, dl, n)) for n in (1, 2, 3, 4)]
    structures += [("Fr_%d^2~=Fr_%d" % (n, n + 1), partial(_product_decomposition, ba, fr[n], fr[n + 1]))
                   for n in (1, 2)]
    structures.append(("universal Fr_3", partial(_universal, fr[3])))
    structures += [("atomless Fr_%d" % n, partial(_atomless, ba, n)) for n in (2, 3)]
    fr3 = fr[3].algebra
    for b in rng.sample([x for x in range(fr3.size) if x not in (fr3.zero, fr3.one)], 3):
        structures.append(("decompose Fr_3 b=%d" % b, partial(_decompose, fr3, b)))

    g0, g1, g2 = fr[3].generators
    sg1 = A.subalgebra_generate(fr3, [g0, g1])
    sg2 = A.subalgebra_generate(fr3, [g1, g2])
    common = A.subalgebra_generate(fr3, [g1])
    interpolants = []
    for x in sorted(sg1):
        for z in sorted(sg2):
            if fr3.leq(x, z):
                interpolants.append(("interpolant x=%d z=%d" % (x, z),
                                     partial(_interpolant, fr3, (g0, g1), (g1, g2), x, z, common)))

    fr2 = fr[2].algebra
    h0, h1 = fr[2].generators
    s1 = sorted(A.subalgebra_generate(fr2, [h0]))
    s2 = sorted(A.subalgebra_generate(fr2, [h1]))
    right = _congruence_generators(fr2, s2)
    extensions = []
    for p in _congruence_generators(fr2, s1):
        for q in right:
            r = M.principal_congruence_on(fr2, s1, [p])
            s = M.principal_congruence_on(fr2, s2, [q])
            if M.CongruencePair(fr2, (h0,), (h1,), r, s).agrees():
                extensions.append(("cp_extend %s %s" % (p, q),
                                   partial(_cp_extend, fr2, (h0, h1), (s1, p), (s2, q))))
    return interleave(structures, interpolants, extensions)


def _congruence_generators(alg, sub):
    """One generating pair per distinct principal congruence on Sg(sub)."""
    seen = {}
    for a in sub:
        for b in sub:
            seen.setdefault(M.principal_congruence_on(alg, sub, [(a, b)]), (a, b))
    return [seen[t] for t in sorted(seen)]


def _free_ba(variety, n):
    fr = F.free_algebra(variety, n)
    n_atoms = len(F.atoms(fr.algebra))
    return fr.size == 2 ** (2 ** n) and n_atoms == 2 ** n, (fr.size, n_atoms, fr.generators)


def _free_dl(variety, n):
    fr = F.free_algebra(variety, n)
    return fr.size == DEDEKIND[n], (fr.size, fr.generators)


def _product_decomposition(variety, fr_n, fr_n1):
    """Fr_n x Fr_n ~= Fr_{n+1}, the map re-checked as a bijective homomorphism."""
    iso_ok, mapping = F.free_product_decomposition_check(variety, len(fr_n.generators))
    prod = A.product([fr_n.algebra, fr_n.algebra])
    ok = (
        iso_ok
        and mapping is not None
        and len(set(mapping)) == prod.size == fr_n1.size
        and A.is_homomorphism(fr_n1.algebra, prod, mapping)
    )
    return ok, mapping


def _universal(fr):
    held = F.universal_property_holds(fr)
    return held is True, held


def _atomless(variety, n):
    held, witness = F.atomless_shadow_check(variety, n)
    return held is True, witness


def _decompose(alg, b):
    found, failure = F.decompose(alg, b)
    if found is None:
        return False, repr(failure)
    rb, rc, mapping = found
    prod = A.product([rb, rc])
    ok = len(set(mapping)) == alg.size == prod.size and A.is_homomorphism(alg, prod, mapping)
    return ok, (rb.size, rc.size, mapping)


def _interpolant(alg, x1, x2, x, z, common):
    found = M.interpolant_search(alg, list(x1), list(x2), x, z)
    ok = found is not None and found[0] in common and found[1] == 1 and alg.leq(x, found[0]) and alg.leq(found[0], z)
    return ok, found


def _cp_extend(alg, gens, side1, side2):
    """Every agreeing pair of principal congruences on Sg(h0), Sg(h1)
    extends to a congruence of Fr_2 restricting to both."""
    (s1, p), (s2, q) = side1, side2
    r = M.principal_congruence_on(alg, s1, [p])
    s = M.principal_congruence_on(alg, s2, [q])
    theta = M.cp_extend(M.CongruencePair(alg, (gens[0],), (gens[1],), r, s))
    ok = (
        theta is not None
        and M.restrict_congruence(theta, s1) == M.restrict_congruence(r, s1)
        and M.restrict_congruence(theta, s2) == M.restrict_congruence(s, s2)
    )
    return ok, theta
