"""Ideals, congruences, amalgamation, interpolation, Gratzer-Schmidt."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reslat.algebra import (
    ChainSpec,
    FiniteAlgebra,
    Signature,
    check_class_axioms,
    core_reduct,
    lattice_reduct,
    make_chain,
    product,
    subalgebra_generate,
)
from reslat.amalgam import (
    AmalgamProblem,
    CongruencePair,
    all_congruences,
    amalgamate,
    congruence_closure,
    cp_extend,
    discriminator_check,
    enumerate_ideals,
    gratzer_schmidt_check,
    ideal_generate,
    ideal_join_characterize,
    interpolant_search,
    is_distributive,
    partition_join,
    principal_congruence,
    principal_congruence_on,
    quotient,
    restrict_congruence,
    superamalgam_check,
)
from reslat.budgets import Budget
from reslat.corpus import corpus_algebras
from reslat.errors import DomainError, PreconditionError, ResourceError
from reslat.free import boolean_variety, distributive_lattice_variety, free_algebra
from reslat.kripke import mutate_table, random_kripke
from reslat.spectra import generate_filter


def luk(n):
    return make_chain(ChainSpec("lukasiewicz", n))


def godel(n):
    return make_chain(ChainSpec("godel", n))


def ba4():
    l2 = luk(2)
    return product([l2, l2])


# ---- ideals -------------------------------------------------------------------


def test_ig_of_zero():
    for alg in (luk(3), godel(4), ba4()):
        assert ideal_generate(alg, [alg.zero]) == {alg.zero}


def test_ig_of_half_in_luk3_is_everything():
    # 1/2 (+) 1/2 = 1, so the oplus closure swallows the algebra
    assert ideal_generate(luk(3), [1]) == {0, 1, 2}


def test_ig_of_half_in_godel3_is_downset():
    assert ideal_generate(godel(3), [1]) == {0, 1}


def test_ideal_enumeration_matches_brute_force():
    for alg in (luk(3), godel(4), ba4()):
        fast = enumerate_ideals(alg)
        brute = []
        for r in range(1, alg.size + 1):
            for members in combinations(range(alg.size), r):
                if ideal_generate(alg, members) == set(members):
                    brute.append(frozenset(members))
        brute.sort(key=lambda s: sum(1 << i for i in s))
        assert fast == brute
        # Ig(seed) is the least ideal over the seed
        for r in range(3):
            for seed in combinations(range(alg.size), r):
                least = frozenset.intersection(*[s for s in brute if s >= set(seed)])
                assert ideal_generate(alg, seed) == least, (alg.name, seed)


def test_join_characterization_exhaustive_on_ba():
    alg = ba4()
    ideals = enumerate_ideals(alg)
    for m in ideals:
        for n in ideals:
            assert ideal_join_characterize(alg, m, n)


def test_ideal_filter_order_duality():
    # Ig(X) computed in the order dual equals Fl(X): check on a Godel chain
    # where star = meet makes the dual star the join
    alg = godel(4)
    from reslat.algebra import FiniteAlgebra, Signature

    n = alg.size
    flip = lambda t: tuple(tuple(t[a][b] for b in range(n)) for a in range(n))
    dual = FiniteAlgebra(
        "dual",
        n,
        alg.signature,
        {
            "join": alg.tables["meet"],
            "meet": alg.tables["join"],
            "star": alg.tables["join"],
            "imp": alg.tables["imp"],  # placeholder: unused by filter laws
            "zero": alg.one,
            "one": alg.zero,
        },
    )
    for seed in ([1], [2], [1, 3]):
        dual_filter = generate_filter(dual, seed).members
        ideal = ideal_generate(lattice_reduct(alg), seed)
        assert dual_filter == ideal


def ideal_extensions(alg, b_sub, m, n, bound=None):
    """The ideals N' of alg with N <= N' and N' cap B = M, by bitmask."""
    b_set = frozenset(b_sub)
    return [i for i in enumerate_ideals(alg, bound=bound) if n <= i and i & b_set == m]


def test_ideal_extension_base_case():
    alg = ba4()
    b_sub = sorted(subalgebra_generate(alg, [alg.element_index("(0,1)")]))
    m = frozenset([alg.zero, alg.element_index("(0,1)")])
    n = frozenset([alg.zero])
    assert ideal_extensions(alg, b_sub, m, n) == [m]


def test_ideal_extension_trivial_m():
    alg = ba4()
    b_sub = sorted(subalgebra_generate(alg, []))
    m = frozenset([alg.zero])
    n = frozenset([alg.zero])
    found = ideal_extensions(alg, b_sub, m, n)
    assert found and all(i >= n for i in found)


def test_ideal_extension_maximal():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    small = sorted(subalgebra_generate(alg, [fr.generators[0]]))
    # maximal ideal of the 4-element subalgebra: everything under ~g0
    neg = alg.imp(fr.generators[0], alg.zero)
    m = frozenset([alg.zero, neg])
    n = frozenset([alg.zero])
    proper = [i for i in enumerate_ideals(alg, bound=16) if len(i) < alg.size]
    maximal = [i for i in proper if not any(i < p for p in proper)]
    assert any(i in maximal for i in ideal_extensions(alg, small, m, n, bound=16))


# ---- congruences ------------------------------------------------------------------


def test_congruence_count_on_free_ba():
    fr = free_algebra(boolean_variety(), 2)
    assert len(all_congruences(fr.algebra)) == 16


def test_congruences_of_godel3():
    # identity, collapse {0,1/2}, everything
    congs = all_congruences(godel(3))
    assert len(congs) == 3


def is_residuated_lattice(alg):
    return "star" in alg.signature and check_class_axioms(alg, "residuated-lattice").passed


def test_all_congruences_match_oracle_on_corpus():
    algs = [alg for alg in corpus_algebras() if alg.size <= 20]
    assert len(algs) == 53 and all(map(is_residuated_lattice, algs))
    for alg in algs:
        assert all_congruences(alg) == oracles.all_congruences(alg), alg.name


def test_all_congruences_match_oracle_on_kripke_set_algebras():
    algs = [random_kripke(seed, 2, 2, 2)[1].algebra for seed in range(200)]
    algs = [alg for alg in algs if alg.size <= 20]
    assert len(algs) == 171 and all(map(is_residuated_lattice, algs))
    for alg in algs:
        assert all_congruences(alg) == oracles.all_congruences(alg), alg.name


def renumbered(alg, perm):
    """The isomorphic copy in which element x is called perm[x]."""
    inv = sorted(range(alg.size), key=perm.__getitem__)
    tables = {}
    for name, arity in alg.signature.ops:
        t = alg.tables[name]
        if arity == 0:
            tables[name] = perm[t]
        elif arity == 1:
            tables[name] = [perm[t[x]] for x in inv]
        else:
            tables[name] = [[perm[t[x][y]] for y in inv] for x in inv]
    return FiniteAlgebra(alg.name + "#renumbered", alg.size, alg.signature, tables)


def test_all_congruences_match_oracle_on_renumbered_algebras():
    """Element order that is not a linear extension of the lattice order."""
    rng = random.Random(3)
    algs = [luk(4), godel(5), ba4(), free_algebra(boolean_variety(), 2).algebra]
    kripke = (random_kripke(seed, 2, 2, 2)[1].algebra for seed in range(10))
    algs += [alg for alg in kripke if alg.size <= 20][:3]
    for alg in algs:
        shuffled = list(range(alg.size))
        rng.shuffle(shuffled)
        for perm in (shuffled, list(reversed(range(alg.size)))):
            copy = renumbered(alg, perm)
            assert is_residuated_lattice(copy)
            assert all_congruences(copy) == oracles.all_congruences(copy), alg.name


def test_all_congruences_match_oracle_without_filters():
    """Algebras that are not residuated lattices join principal congruences."""
    reducts = [lattice_reduct(alg) for alg in corpus_algebras() if alg.size <= 12]
    # 1/2 -> 0 = 1 breaks the adjunction of luk:3
    mutant = mutate_table(luk(3), "imp", (1, 0), 2)
    assert not check_class_axioms(mutant, "residuated-lattice").passed
    for alg in [mutant] + reducts:
        assert all_congruences(alg) == oracles.all_congruences(alg), alg.name


@pytest.mark.parametrize("build, op, position, value", [
    (lambda: product([luk(3), luk(3)]), "neg", (0,), 0),
    (lambda: random_kripke(11, 2, 2, 2)[1].algebra, "c_0", (0,), 1),
], ids=["neg", "operator"])
def test_filter_congruences_check_the_ops_outside_the_core(build, op, position, value):
    """A fault in neg or in an operator leaves the residuated-lattice suite
    passing, so the filter path runs, which checks no core op: it still
    drops every theta_F that the fault breaks."""
    alg = build()
    fault = mutate_table(alg, op, position, value)
    assert is_residuated_lattice(fault)
    got = all_congruences(fault)
    assert got == oracles.all_congruences(fault)
    assert len(got) < len(all_congruences(alg))


def test_all_congruences_match_oracle_on_free_distributive_lattice():
    # several rounds of joins on the fallback path; the slowest oracle run
    fr3 = free_algebra(distributive_lattice_variety(), 3).algebra
    congs = all_congruences(fr3)
    assert len(congs) == 256
    assert congs == oracles.all_congruences(fr3)


@st.composite
def partitions(draw, n):
    """A partition of range(n), each element mapped to its class's least member."""
    blocks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tuple(blocks.index(b) for b in blocks)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(partitions(n), partitions(n))))
def test_partition_join_is_closure_of_union(pair):
    t1, t2 = pair
    n = len(t1)
    bare_set = FiniteAlgebra("set", n, Signature(()), {})
    union = [(x, t[x]) for t in pair for x in range(n)]
    assert partition_join(t1, t2) == congruence_closure(bare_set, union)


def test_quotient_shapes():
    alg = godel(3)
    # collapsing 1/2 with 1 is a Heyting congruence with blocks {0},{1/2,1}
    theta = principal_congruence(alg, 1, 2)
    q, proj = quotient(alg, theta)
    assert q.size == 2
    assert proj[1] == proj[2] != proj[0]
    # collapsing 0 with 1/2 forces everything (imp breaks the split)
    assert len(set(principal_congruence(alg, 0, 1))) == 1


def test_congruence_closure_respects_ops():
    alg = luk(3)
    theta = congruence_closure(alg, [(0, 1)])
    # collapsing 0 with 1/2 forces everything in an MV chain
    assert len(set(theta)) == 1


def test_congruence_closure_matches_union_find_oracle():
    """The row and column closure against one union per table entry:
    seeded random pairs on the corpus algebras, on copies of them with one
    unary or binary entry changed (so that no table need be commutative or
    derived from the others) and on DL Fr_3, on the whole algebra and on
    the subalgebra generated by one element."""
    rng = random.Random(12)
    algs = corpus_algebras()
    faulted = []
    for alg in algs:
        for arity in {ar for _, ar in alg.signature.ops} - {0}:
            name = rng.choice([nm for nm, ar in alg.signature.ops if ar == arity])
            pos = tuple(rng.randrange(alg.size) for _ in range(arity))
            faulted.append(mutate_table(alg, name, pos, rng.randrange(alg.size)))
    for alg in algs + faulted + [free_algebra(distributive_lattice_variety(), 3).algebra]:
        for k in (1, 1, 2, 3):
            pairs = [(rng.randrange(alg.size), rng.randrange(alg.size)) for _ in range(k)]
            got = congruence_closure(alg, pairs)
            assert got == oracles.congruence_closure(alg, pairs), (alg.name, pairs)
            assert all(type(x) is int for x in got)
        sub = sorted(subalgebra_generate(alg, [rng.randrange(alg.size)]))
        pairs = [(rng.choice(sub), rng.choice(sub)) for _ in range(2)]
        want = oracles.congruence_closure(alg, pairs, universe=sub)
        assert congruence_closure(alg, pairs, universe=sub) == want, (alg.name, sub, pairs)


def equivalences(elements):
    """Every equivalence relation on `elements`, as element -> block label."""
    if not elements:
        yield {}
        return
    first, rest = elements[0], elements[1:]
    for sub in equivalences(rest):
        labels = sorted(set(sub.values()))
        for label in labels + [first]:
            yield {**sub, first: label}


def test_congruence_closure_on_subuniverse_matches_brute_force():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    ops = [(alg.tables[nm], ar) for nm, ar in alg.signature.ops if ar > 0]
    for gens in ([], [fr.generators[0]], [fr.generators[1]]):
        sub = sorted(subalgebra_generate(alg, gens))
        assert len(sub) < alg.size
        compatible = []
        for eq in equivalences(sub):
            if all(
                eq[t[x]] == eq[t[y]] if ar == 1
                else eq[t[x][z]] == eq[t[y][z]] and eq[t[z][x]] == eq[t[z][y]]
                for t, ar in ops
                for x in sub
                for y in sub
                if eq[x] == eq[y]
                for z in sub
            ):
                compatible.append(eq)
        for a in sub:
            for b in sub:
                # least compatible equivalence over (a, b): the meet of all
                least = list(range(alg.size))
                for x in sub:
                    least[x] = min(
                        y for y in sub
                        if all(eq[x] == eq[y] for eq in compatible if eq[a] == eq[b])
                    )
                got = congruence_closure(alg, [(a, b)], universe=sub)
                assert got == tuple(least), (gens, a, b)
                assert principal_congruence_on(alg, sub, [(a, b)]) == got


def test_cp_extend_found():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    sg1 = sorted(subalgebra_generate(alg, [g0]))
    r = principal_congruence_on(alg, sg1, [(g0, alg.one)])
    s = tuple(range(alg.size))
    pair = CongruencePair(alg, (g0,), (g1,), r, s)
    assert pair.agrees()
    theta = cp_extend(pair)
    assert theta is not None
    assert restrict_congruence(theta, sg1) == restrict_congruence(r, sg1)


def test_cp_identity_case():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    ident = tuple(range(alg.size))
    pair = CongruencePair(alg, (fr.generators[0],), (fr.generators[1],), ident, ident)
    assert cp_extend(pair) == ident


def test_cp_disagreeing_pair_rejected():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    sg1 = sorted(subalgebra_generate(alg, [g0]))
    r = principal_congruence_on(alg, sg1, [(alg.zero, alg.one)])
    s = tuple(range(alg.size))
    pair = CongruencePair(alg, (g0,), (g1,), r, s)
    with pytest.raises(PreconditionError):
        cp_extend(pair)


def congruence_pairs(alg, rng, per_side=3):
    """Pairs over X1 = {x1} and X2 = {x2}, two random elements: R and S
    run over the identity and `per_side` random principal congruences of
    Sg(X1) and of Sg(X2)."""
    x1, x2 = rng.randrange(alg.size), rng.randrange(alg.size)

    def side(x):
        sub = sorted(subalgebra_generate(alg, [x]))
        picked = rng.sample(list(combinations(sub, 2)), min(per_side, len(sub) * (len(sub) - 1) // 2))
        return [tuple(range(alg.size))] + [principal_congruence_on(alg, sub, [p]) for p in picked]

    return [CongruencePair(alg, (x1,), (x2,), r, s) for r in side(x1) for s in side(x2)]


@pytest.mark.parametrize("family", ["corpus", "kripke", "faulty"])
def test_cp_extend_is_the_search_over_every_congruence(family):
    """On the corpus algebras, Kripke set algebras and single faults of
    both (tests/test_order.py), the one congruence closure answers as the
    search over the congruence lattice did: the same finest extension, or
    None; both refuse a pair that disagrees on Sg(X1 cap X2)."""
    from test_order import FAMILIES

    rng = random.Random(0)
    outcomes = Counter()
    for alg in FAMILIES[family]:
        congruences = all_congruences(alg, budget=Budget(spectrum=64))
        for pair in congruence_pairs(alg, rng):
            if not pair.agrees():
                with pytest.raises(PreconditionError):
                    oracles.cp_extend(pair, congruences)
                with pytest.raises(PreconditionError):
                    cp_extend(pair)
                outcomes["disagree"] += 1
                continue
            theta = cp_extend(pair)
            assert theta == oracles.cp_extend(pair, congruences), (alg.name, pair.r, pair.s)
            outcomes["none" if theta is None else "found"] += 1
    assert outcomes["found"] and outcomes["disagree"]
    assert outcomes["none"] or family == "kripke"


def test_cp_extend_runs_past_the_congruence_lattice_gate(monkeypatch):
    """godel:6 x godel:6, a corpus algebra of 36 elements, is over the
    default gate of the congruence lattice, which cp_extend does not list."""
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    g6 = core_reduct(godel(6))
    alg = product([g6, g6])
    with pytest.raises(ResourceError):
        all_congruences(alg)
    x1, x2 = alg.labels.index("(2/5,1)"), alg.labels.index("(1,3/5)")
    sg1, sg2 = sorted(subalgebra_generate(alg, [x1])), sorted(subalgebra_generate(alg, [x2]))
    r = principal_congruence_on(alg, sg1, [(x1, alg.one)])
    s = tuple(range(alg.size))
    theta = cp_extend(CongruencePair(alg, (x1,), (x2,), r, s))
    assert len(set(theta)) == 18
    assert restrict_congruence(theta, sg1) == restrict_congruence(r, sg1)
    assert restrict_congruence(theta, sg2) == restrict_congruence(s, sg2)


# ---- amalgamation -----------------------------------------------------------------


def test_trivial_amalgam_is_the_algebra_itself():
    l2 = luk(2)
    ident = tuple(range(l2.size))
    result = amalgamate(AmalgamProblem(l2, l2, l2, ident, ident, max_size=8))
    assert result is not None
    d, k, h = result
    assert d.size == 2
    assert superamalgam_check(AmalgamProblem(l2, l2, l2, ident, ident), d, k, h)


def boolean_problem():
    alg = ba4()
    l2 = luk(2)
    emb = (alg.element_index("(0,0)"), alg.element_index("(1,1)"))
    return AmalgamProblem(alg, alg, l2, emb, emb, max_size=16)


def test_boolean_amalgam_found():
    prob = boolean_problem()
    result = amalgamate(prob)
    assert result is not None
    d, k, h = result
    assert d.size <= 16
    assert all(k[prob.m[c]] == h[prob.n[c]] for c in range(prob.c.size))
    assert len(set(k)) == prob.a.size and len(set(h)) == prob.b.size


def test_boolean_superamalgam_exists():
    prob = boolean_problem()
    result = amalgamate(prob, require_super=True)
    assert result is not None
    assert superamalgam_check(prob, *result)


def test_luk3_over_luk2_amalgam():
    l3, l2 = luk(3), luk(2)
    emb = (0, 2)
    result = amalgamate(AmalgamProblem(l3, l3, l2, emb, emb, max_size=9))
    assert result is not None
    d, k, h = result
    # the outcome is computed, not presumed: verify the witness directly
    assert len(set(k)) == 3 and len(set(h)) == 3
    assert all(k[emb[c]] == h[emb[c]] for c in range(2))


def test_amalgam_rejects_non_embeddings():
    l3, l2 = luk(3), luk(2)
    with pytest.raises(PreconditionError):
        AmalgamProblem(l3, l3, l2, (0, 0), (0, 2)).validate()


def test_amalgam_rejects_algebras_of_two_signatures():
    """A, B and C share one signature, whichever of them lacks an op."""

    def without_neg(alg):
        data = alg.to_json()
        del data["ops"]["neg"]
        return FiniteAlgebra.from_json(data)

    l3, l2 = luk(3), luk(2)
    for args, side in (((without_neg(l3), l3, l2), "A"), ((l3, l3, without_neg(l2)), "C")):
        with pytest.raises(PreconditionError, match="^A, B and C must have one signature: %s lacks neg/1$" % side):
            AmalgamProblem(*args, (0, 2), (0, 2)).validate()


def test_superamalgam_broken_witness():
    # h = k sends both legs onto the same image: k(atom) <= h(atom) then
    # demands a C-interpolant between an atom and itself, which the
    # two-element C cannot provide
    prob = boolean_problem()
    d, k, h = amalgamate(prob, require_super=True)
    assert not superamalgam_check(prob, d, k, k)


# ---- interpolation -----------------------------------------------------------------


def test_interpolant_identity_case():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    y, n = interpolant_search(alg, [g0, g1], [g0, g1], g0, g0)
    assert y == g0 and n == 1


def test_interpolant_on_fr3():
    fr = free_algebra(boolean_variety(), 3)
    alg = fr.algebra
    g0, g1, g2 = fr.generators
    x = alg.meet(g0, g1)
    z = alg.join(g1, g2)
    y, n = interpolant_search(alg, [g0, g1], [g1, g2], x, z)
    assert y == g1 and n == 1


def test_interpolants_through_trivial_common_subalgebra():
    # Sg(empty) = {0,1}: interpolants exist exactly when x = 0 or z = 1
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    sg1 = subalgebra_generate(alg, [g0])
    sg2 = subalgebra_generate(alg, [g1])
    for x in sorted(sg1):
        for z in sorted(sg2):
            if not alg.leq(x, z):
                continue
            found = interpolant_search(alg, [g0], [g1], x, z)
            assert found is not None
            assert found[0] in subalgebra_generate(alg, [])


def test_interpolant_preconditions():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    with pytest.raises(PreconditionError):
        interpolant_search(alg, [g0], [g1], g1, alg.one)
    with pytest.raises(PreconditionError):
        interpolant_search(alg, [g0], [g1], alg.one, g1)


def test_tau_power_phase():
    # luk:5 with X1 = {1/4}, X2 = {1/2}: Sg(X1 cap X2) = {0, 1}, and for
    # x = 1/4 <= z = 1/2 no identity-term interpolant exists, but z (+) z
    # reaches 1, so the tau(z^n) phase answers at power 2
    alg = luk(5)
    found = interpolant_search(alg, [1], [2], 1, 2)
    assert found == (alg.one, 2)


def test_cp_weak_interpolation_link():
    # the corpus property: when cp_extend succeeds for all agreeing pairs,
    # interpolant_search succeeds for all x <= z across the subalgebras
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    sg1 = sorted(subalgebra_generate(alg, [g0]))
    sg2 = sorted(subalgebra_generate(alg, [g1]))
    for x in sg1:
        for z in sg2:
            if alg.leq(x, z):
                assert interpolant_search(alg, [g0], [g1], x, z) is not None


# ---- discriminator ------------------------------------------------------------------


def test_discriminator_identity_on_ba():
    alg = ba4()
    ok, violations = discriminator_check(alg, tuple(range(alg.size)))
    assert ok and not violations


def test_discriminator_zero_fails():
    alg = ba4()
    ok, violations = discriminator_check(alg, tuple(alg.zero for _ in range(alg.size)))
    assert not ok
    assert violations[0][0] == "a"


def test_discriminator_full_closure_on_kripke():
    from reslat.kripke import KripkeSystem, set_algebra

    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    alg = ksa.algebra
    d = [alg.apply("c_0", alg.apply("c_1", x)) for x in range(alg.size)]
    ok, violations = discriminator_check(alg, tuple(d))
    assert ok, violations


@pytest.mark.parametrize("d", [[-1, -1, -1], [3, 3, 3], [0, 1, 3], [-4, 2, 2], [1, 2]])
def test_discriminator_rejects_a_table_of_non_elements(d):
    """An entry outside 0..n-1 is refused like a table of the wrong length:
    -1 would wrap to the top element and pass, 3 would index past the end."""
    with pytest.raises(DomainError):
        discriminator_check(godel(3), d)


# ---- Gratzer-Schmidt ---------------------------------------------------------------


def test_is_distributive_matches_a_triple_loop_on_faulted_lattices():
    def distributive(alg):
        n = range(alg.size)
        return all(
            alg.meet(a, alg.join(b, c)) == alg.join(alg.meet(a, b), alg.meet(a, c))
            for a in n for b in n for c in n
        )

    rng = random.Random(3)
    seen = set()
    for alg in corpus_algebras()[:12]:
        lat = lattice_reduct(alg)
        seen.add(is_distributive(lat))
        assert is_distributive(lat) == distributive(lat)
        for _ in range(6):
            op = rng.choice(("meet", "join"))
            x, y, v = (rng.randrange(lat.size) for _ in range(3))
            faulted = mutate_table(lat, op, (x, y), v)
            got = is_distributive(faulted)
            assert got == distributive(faulted)
            seen.add(got)
    assert seen == {True, False}


def test_gratzer_schmidt_on_boolean_algebras():
    for alg in (luk(2), ba4(), free_algebra(boolean_variety(), 2).algebra):
        rep = gratzer_schmidt_check(alg, bound=20)
        assert rep["correspondence"] and rep["conditions"] and rep["biconditional"]


def test_gratzer_schmidt_on_three_chain():
    rep = gratzer_schmidt_check(luk(3))
    assert not rep["relatively_complemented"]
    assert not rep["correspondence"]
    assert rep["biconditional"]


def test_gratzer_schmidt_on_g3():
    rep = gratzer_schmidt_check(godel(3))
    assert not rep["conditions"] and not rep["correspondence"]
    assert rep["biconditional"]


def raised(f, *args, **kw):
    """f's value, or the type and message of the error it raises."""
    try:
        return f(*args, **kw)
    except Exception as exc:  # the preconditions of faulty tables
        return type(exc), str(exc)


@pytest.mark.parametrize("family", ["corpus", "kripke", "faulty"])
def test_gratzer_schmidt_check_is_the_listing(family):
    """On the corpus algebras of at most 20 elements, the Kripke set
    algebras and the single faults of tests/test_order.py, reading
    surjectivity off the principal congruences gives the whole report,
    or the error, that comparing the image with the listed congruence
    lattice gave.  The Kripke budget admits their 32-element one."""
    from test_order import FAMILIES

    budget = Budget(spectrum=64) if family == "kripke" else None
    for alg in FAMILIES[family]:
        if family == "corpus" and alg.size > 20:
            continue
        for bound in (20, None):
            want = raised(oracles.gratzer_schmidt_check, alg, all_congruences, bound, budget)
            assert raised(gratzer_schmidt_check, alg, bound, budget) == want, (alg.name, bound)


def test_gratzer_schmidt_biconditional_on_corpus_sample():
    samples = [luk(2), luk(4), godel(4), ba4(), product([core_reduct(luk(3)), core_reduct(godel(3))])]
    for alg in samples:
        rep = gratzer_schmidt_check(alg, bound=20)
        assert rep["biconditional"], (alg.name, rep)
