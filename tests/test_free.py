"""Free algebras, atoms, relativization and the decomposition theorems."""

import random
from itertools import product as iproduct

import numpy
import pytest

import oracles
from reslat.algebra import (
    ChainSpec,
    FiniteAlgebra,
    complement,
    core_reduct,
    first_hom_failure,
    generating_sequence,
    homomorphisms,
    is_homomorphism,
    iso_check,
    make_chain,
    product,
    subalgebra_generate,
)
from reslat.amalgam import ideal_congruence, ideal_generate, quotient
from reslat.errors import NotComplementedError, PreconditionError, ResourceError
from reslat.free import (
    FreeAlgebra,
    VarietySpec,
    atoms,
    atomless_shadow_check,
    boolean_variety,
    decompose,
    distributive_lattice_variety,
    free_algebra,
    free_product_decomposition_check,
    is_atomic,
    is_freely_generated_by,
    relativize,
    universal_property_holds,
)
from reslat import budgets
from reslat.kripke import mutate_table
from reslat.sheaf import zero_dim


def brute_force_closure(generators, n, gen_algebras):
    """Oracle: naive tuple closure, no vectorization, insertion-ordered."""
    coords = []
    for ai, g in enumerate(gen_algebras):
        for v in iproduct(range(g.size), repeat=n):
            coords.append((ai, v))
    algs = [gen_algebras[ai] for ai, _ in coords]
    sig = gen_algebras[0].signature

    def apply(opname, args):
        return tuple(
            algs[c].apply(opname, *[x[c] for x in args]) for c in range(len(coords))
        )

    elems = set()
    for i in range(n):
        elems.add(tuple(v[i] for _, v in coords))
    for nm, ar in sig.ops:
        if ar == 0:
            elems.add(apply(nm, []))
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for nm, ar in sig.ops:
            if ar == 1:
                for x in snapshot:
                    v = apply(nm, [x])
                    if v not in elems:
                        elems.add(v)
                        changed = True
            elif ar == 2:
                for x in snapshot:
                    for y in snapshot:
                        v = apply(nm, [x, y])
                        if v not in elems:
                            elems.add(v)
                            changed = True
    return elems


def test_fr1_ba_size_and_atoms():
    ba = boolean_variety()
    oracle = brute_force_closure(None, 1, ba.generators)
    assert len(oracle) == 4
    fr = free_algebra(ba, 1)
    assert fr.size == 4
    assert len(atoms(fr.algebra)) == 2


def test_fr2_ba_size_and_atoms():
    ba = boolean_variety()
    assert len(brute_force_closure(None, 2, ba.generators)) == 16
    fr = free_algebra(ba, 2)
    assert fr.size == 16
    assert len(atoms(fr.algebra)) == 4


def test_fr3_ba():
    fr = free_algebra(boolean_variety(), 3)
    assert fr.size == 256
    assert len(atoms(fr.algebra)) == 8


def test_fr2_distributive_lattice_is_six():
    dl = distributive_lattice_variety()
    assert len(brute_force_closure(None, 2, dl.generators)) == 6
    assert free_algebra(dl, 2).size == 6


def test_free_algebra_needs_generators():
    from reslat.errors import InvalidSpecError

    with pytest.raises(InvalidSpecError):
        free_algebra(boolean_variety(), 0)


def test_closure_budget():
    with pytest.raises(ResourceError):
        free_algebra(boolean_variety(), 3, budget=budgets.Budget(closure=10))


def test_universal_property():
    ba = boolean_variety()
    for n in (1, 2):
        assert universal_property_holds(free_algebra(ba, n))


def _cores(kind, *sizes):
    return VarietySpec(tuple(core_reduct(make_chain(ChainSpec(kind, k))) for k in sizes))


def _trivial_mv():
    """The one-element MV algebra: its unary neg holds the same bytes as
    each of its binary tables, so only the arity tells them apart."""
    sig = make_chain(ChainSpec("lukasiewicz", 2)).signature
    tables = {op: [0] if ar == 1 else [[0]] if ar == 2 else 0 for op, ar in sig.ops}
    return VarietySpec((FiniteAlgebra("mv1", 1, sig, tables),))


CLOSURE_CASES = [
    pytest.param(boolean_variety, n, id="ba-%d" % n) for n in (1, 2, 3)
] + [
    pytest.param(distributive_lattice_variety, n, id="dl-%d" % n) for n in (1, 2, 3, 4)
] + [
    pytest.param(lambda: VarietySpec((make_chain(ChainSpec("lukasiewicz", 3)),)), 1, id="luk:3-1"),
    pytest.param(lambda: _cores("lukasiewicz", 2), 1, id="core-luk:2-1"),
    pytest.param(lambda: _cores("lukasiewicz", 3), 1, id="core-luk:3-1"),
    pytest.param(lambda: _cores("lukasiewicz", 4), 1, id="core-luk:4-1"),
    pytest.param(lambda: _cores("lukasiewicz", 2, 3, 4), 1, id="core-luk:2..4-1"),
    pytest.param(lambda: _cores("godel", 3), 2, id="core-godel:3-2"),
    pytest.param(_trivial_mv, 2, id="trivial-mv-2"),
]


@pytest.mark.parametrize("variety, n", CLOSURE_CASES)
def test_vectors_equal_brute_force_closure(variety, n):
    variety = variety()
    fr = free_algebra(variety, n)
    want = sorted(brute_force_closure(None, n, variety.generators))
    assert fr.vectors.dtype == "int32"
    assert fr.vectors.shape == (len(want), len(fr.coords))
    assert [tuple(row) for row in fr.vectors.tolist()] == want


@pytest.mark.parametrize("variety, n", CLOSURE_CASES[:2] + CLOSURE_CASES[5:8])
def test_vectors_equal_table_walked_projections(variety, n):
    fr = free_algebra(variety(), n)
    for c in range(len(fr.coords)):
        assert fr.vectors[:, c].tolist() == oracles.projection_map(fr, c)


def test_explicit_coordinates():
    ba = boolean_variety()
    full = free_algebra(ba, 2)
    same = free_algebra(ba, 2, coords=full.coords)
    assert same.algebra.dumps() == full.algebra.dumps()
    # two of the four valuations: p0 = p1 on them, so Fr collapses to Fr_1
    fr = free_algebra(ba, 2, coords=[(0, (0, 0)), (0, (1, 1))])
    assert fr.size == 4 and fr.generators == (1, 1)
    assert fr.algebra.labels == ("e0", "g0", "e2", "e3")
    assert fr.vectors.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_universal_property_rejects_a_corrupted_entry():
    for variety, n in ((boolean_variety(), 2), (distributive_lattice_variety(), 3)):
        fr = free_algebra(variety, n)
        alg = fr.algebra
        for opname in ("join", "meet"):
            x, y = fr.generators[0], fr.generators[1]
            z = alg.apply(opname, x, y)
            bad = mutate_table(alg, opname, (x, y), (z + 1) % alg.size)
            forged = FreeAlgebra(bad, fr.generators, fr.coords, fr.variety, fr.vectors)
            assert not universal_property_holds(forged)


def test_universal_property_with_explicit_coordinates():
    """A valuation outside `coords` is decided by a homomorphism search."""
    fr = free_algebra(boolean_variety(), 2, coords=[(0, (0, 0)), (0, (1, 1))])
    assert not universal_property_holds(fr)  # g0 = g1 cannot go to (0, 1)
    assert fr.report()["universal_property"] is False
    luk3, luk2 = (make_chain(ChainSpec("lukasiewicz", n)) for n in (3, 2))
    variety = VarietySpec((luk3, luk2))
    # luk:2 is a subalgebra of luk:3, so the luk:3 coordinates already give a free algebra
    fr = free_algebra(variety, 1, coords=[(0, (v,)) for v in range(3)])
    assert fr.size == free_algebra(VarietySpec((luk3,)), 1).size
    assert universal_property_holds(fr)


def test_free_over_luk3_variety():
    variety = VarietySpec((make_chain(ChainSpec("lukasiewicz", 3)),))
    fr = free_algebra(variety, 1)
    # golden value, pinned by the brute-force closure oracle
    assert len(brute_force_closure(None, 1, variety.generators)) == 12
    assert fr.size == 12
    assert universal_property_holds(fr)


# ---- atoms -------------------------------------------------------------------


def test_atoms_of_luk3():
    alg = make_chain(ChainSpec("lukasiewicz", 3))
    assert atoms(alg) == [1]
    ok, witness = is_atomic(alg)
    assert ok and witness is None


def test_every_finite_algebra_atomic():
    for spec in (("lukasiewicz", 4), ("godel", 6)):
        assert is_atomic(make_chain(ChainSpec(*spec)))[0]
    assert is_atomic(free_algebra(boolean_variety(), 2).algebra)[0]


# ---- free generation ------------------------------------------------------------


def test_fr1_freely_generated_by_negation_of_generator():
    fr = free_algebra(boolean_variety(), 1)
    alg = fr.algebra
    neg_g = alg.imp(fr.generators[0], alg.zero)
    assert is_freely_generated_by(fr, [neg_g])


def test_fr1_not_freely_generated_by_zero():
    fr = free_algebra(boolean_variety(), 1)
    assert not is_freely_generated_by(fr, [fr.algebra.zero])


def test_fr2_definitional_check_on_pair():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    g0, g1 = fr.generators
    # {g0 ^ g1, g0} generates but g0 ^ g1 is not independent from g0
    computed = is_freely_generated_by(fr, [alg.meet(g0, g1), g0])
    generates = len(subalgebra_generate(alg, [alg.meet(g0, g1), g0])) == alg.size
    if generates:
        assert computed is False  # the valuation g0^g1 -> 1, g0 -> 0 cannot extend
    else:
        assert computed is False
    # an honest free pair: {~g0, g1}
    assert is_freely_generated_by(fr, [alg.imp(g0, alg.zero), g1])


FREE_GENERATION_CASES = [
    pytest.param(boolean_variety, n, id="ba-%d" % n) for n in (1, 2)
] + [
    pytest.param(distributive_lattice_variety, n, id="dl-%d" % n) for n in (1, 2)
] + [
    pytest.param(lambda kind=kind: VarietySpec((make_chain(ChainSpec(kind, 3)),)), 1, id="%s:3-1" % kind)
    for kind in ("lukasiewicz", "godel")
]


@pytest.mark.parametrize("variety, n", FREE_GENERATION_CASES)
def test_free_generation_matches_the_valuation_search(variety, n):
    """On every list Y of n elements, |Y| = n plus Sg(Y) = Fr_n plus the
    universal property of the free generators gives what a homomorphism
    search per valuation of Y gives."""
    fr = free_algebra(variety(), n)
    verdicts = set()
    for ys in iproduct(range(fr.size), repeat=n):
        got = is_freely_generated_by(fr, ys)
        assert got == bool(oracles.is_freely_generated_by(fr, ys)), ys
        verdicts.add(got)
    assert verdicts == {True, False}


def test_wrong_cardinality_rejected():
    fr = free_algebra(boolean_variety(), 2)
    with pytest.raises(PreconditionError):
        is_freely_generated_by(fr, [fr.generators[0]])


# ---- relativization ---------------------------------------------------------------


def test_relativize_by_one_is_identity():
    alg = make_chain(ChainSpec("godel", 4))
    r = relativize(alg, alg.one)
    assert r.size == alg.size
    assert r.tables["join"].tolist() == alg.tables["join"].tolist()


def test_relativize_by_atom_gives_two_elements():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    atom = atoms(alg)[0]
    r = relativize(alg, atom)
    assert r.size == 2
    assert r.embedding == (alg.zero, atom)


def test_relativize_by_two_atom_join():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    ats = atoms(alg)
    b = alg.join(ats[0], ats[1])
    r = relativize(alg, b)
    assert r.size == 4  # elements below a 2-atom join in a BA


def test_relativized_residuation():
    # the relativized imp is the residuum of star on the interval [0, b]
    alg = make_chain(ChainSpec("lukasiewicz", 5))
    r = relativize(alg, 3)
    for x, y, z in iproduct(range(r.size), repeat=3):
        assert r.leq(z, r.imp(x, y)) == r.leq(r.star(x, z), y)


# ---- hereditary closedness and decomposition ----------------------------------------


def hereditary_closed(alg, b):
    """b is hereditary closed when every operator fixes everything below
    b: the down-set of b lies inside `sheaf.zero_dim`'s Zd."""
    return set(numpy.flatnonzero(alg.order[:, b]).tolist()) <= set(zero_dim(alg))


def test_hereditary_closed_on_kripke_example():
    from reslat.kripke import KripkeSystem, set_algebra

    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    alg = ksa.algebra
    d01 = alg.const("d_0_1")
    b = alg.imp(alg.apply("c_0", alg.imp(d01, alg.zero)), alg.zero)  # -c0(-d01)
    assert hereditary_closed(alg, b)


def test_hereditary_closed_counterexample():
    from reslat.kripke import KripkeSystem, set_algebra

    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    alg = ksa.algebra
    assert not hereditary_closed(alg, alg.one)  # cylindrifiers move plenty below the top


def test_decompose_in_boolean_algebra():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    for b in range(alg.size):
        result, failure = decompose(alg, b)
        assert failure is None
        rb, rc, mapping = result
        assert rb.size * rc.size == alg.size


def test_decompose_by_one():
    fr = free_algebra(boolean_variety(), 1)
    alg = fr.algebra
    (rb, rc, mapping), failure = decompose(alg, alg.one)
    assert failure is None
    assert rb.size == alg.size and rc.size == 1


def test_decompose_needs_complement():
    with pytest.raises(NotComplementedError):
        decompose(make_chain(ChainSpec("godel", 3)), 1)


def test_decomposition_map_is_isomorphism():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    b = fr.generators[0]
    (rb, rc, mapping), _ = decompose(alg, b)
    prod = product([rb, rc])
    assert len(set(mapping)) == alg.size
    assert is_homomorphism(alg, prod, mapping)


def test_atoms_of_relativization_are_atoms():
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    big_atoms = set(atoms(alg))
    for b in range(alg.size):
        r = relativize(alg, b)
        for a in atoms(r):
            assert r.embedding[a] in big_atoms


# ---- product decomposition and atomless shadow -----------------------------------------


def test_free_product_decomposition_ba():
    ba = boolean_variety()
    for n in (1, 2):
        ok, mapping = free_product_decomposition_check(ba, n)
        assert ok and mapping is not None


def test_free_product_decomposition_dl_reported_honestly():
    # |Fr_1(DL)| = 3 and |Fr_2(DL)| = 6 != 9: the hypotheses fail and the
    # check reports the size obstruction rather than presuming the theorem
    ok, mapping = free_product_decomposition_check(distributive_lattice_variety(), 1)
    assert not ok and mapping is None


def test_atomless_shadow():
    ba = boolean_variety()
    for n in (2, 3):
        ok, witness = atomless_shadow_check(ba, n)
        assert ok, witness


def test_atomless_shadow_needs_two_generators():
    with pytest.raises(PreconditionError):
        atomless_shadow_check(boolean_variety(), 1)


def test_hereditary_count_bound():
    # |At A  ^ Rl_b A| <= 2^n for hereditary closed b; vacuous-but-checked
    # shadow on a Boolean instance where every b is hereditary closed
    fr = free_algebra(boolean_variety(), 2)
    alg = fr.algebra
    for b in range(alg.size):
        assert hereditary_closed(alg, b)  # no extra operators: always true
        below = [a for a in atoms(alg) if alg.leq(a, b)]
        assert len(below) <= 2 ** len(fr.generators)


def test_build_report_shape():
    fr = free_algebra(boolean_variety(), 1)
    rep = fr.report()
    assert rep["size"] == 4
    assert rep["atom_count"] == 2
    assert rep["universal_property"] is True
    assert len(rep["coordinates"]) == 2


def test_ops_with_equal_tables_share_one_slot():
    """On luk:2, oplus is join and odot and star are meet, as tables of
    equal values: Fr_3(BA) builds and keeps one table for each."""
    alg = free_algebra(boolean_variety(), 3).algebra
    assert alg._stacks[2].shape == (3, 256, 256)
    assert alg._stacks[1].shape == (1, 256)
    slot = alg._slot
    assert slot["oplus"] == slot["join"] and slot["odot"] == slot["star"] == slot["meet"]
    assert len({slot["join"], slot["meet"], slot["imp"]}) == 3


def _twin(alg):
    """The algebra again, with every table a distinct copy, so that no two
    ops share a slot."""
    tables = {op: t if type(t) is int else numpy.array(t) for op, t in alg.tables.items()}
    return FiniteAlgebra(alg.name, alg.size, alg.signature, tables, labels=alg.labels)


def _shared_ops(alg):
    """The ops of arity 1 or 2 whose slot holds another op too."""
    ops = [(op, ar) for op, ar in alg.signature.ops if ar]
    return [op for op, ar in ops if sum(alg._slot[o] == alg._slot[op] and a == ar for o, a in ops) > 1]


TWIN_CASES = [
    pytest.param(lambda: free_algebra(boolean_variety(), 2).algebra, id="ba-fr2"),
    pytest.param(lambda: free_algebra(boolean_variety(), 3).algebra, id="ba-fr3"),
    pytest.param(lambda: product([make_chain(ChainSpec("lukasiewicz", 2))] * 2), id="luk:2^2"),
    pytest.param(lambda: product([make_chain(ChainSpec("lukasiewicz", 2))] * 3), id="luk:2^3"),
]


@pytest.mark.parametrize("build", TWIN_CASES)
def test_shared_slots_give_what_distinct_tables_give(build):
    """An algebra whose ops share slots, and its twin whose tables are all
    distinct copies, give equal products, relativizations, quotients,
    homomorphisms, isomorphisms and first homomorphism failures, also
    after one entry of a shared op changes."""
    alg = build()
    twin = _twin(alg)
    assert _shared_ops(alg) and not _shared_ops(twin)
    assert oracles.table_lists(twin) == oracles.table_lists(alg)

    def same(f):
        got = f(alg)
        assert f(twin) == got
        return got

    def product_of(*factors):
        p = product(list(factors))
        return oracles.table_lists(p), p.labels

    if alg.size <= 16:
        assert product_of(alg, twin) == same(lambda x: product_of(x, x))
    rng = random.Random(18)
    for b in rng.sample(range(alg.size), min(alg.size, 6)):
        same(lambda x: (oracles.table_lists(relativize(x, b)), relativize(x, b).embedding))
        c = complement(alg, b)
        same(lambda x: product_of(relativize(x, b), relativize(x, c)))  # of alg.size elements
        theta = same(lambda x: tuple(ideal_congruence(x, [ideal_generate(x, [b])])[0].tolist()))
        same(lambda x: (oracles.table_lists(quotient(x, theta)[0]), quotient(x, theta)[1]))
    luk2 = make_chain(ChainSpec("lukasiewicz", 2))
    gens = generating_sequence(alg)
    assert len(same(lambda x: homomorphisms(x, luk2, gens=gens))) == len(atoms(alg))
    homs = same(lambda x: homomorphisms(x, x, gens=gens, limit=4))
    assert homomorphisms(alg, twin, gens=gens, limit=4) == homs
    m = same(lambda x: iso_check(x, x, gens=gens))
    assert m is not None and iso_check(alg, twin, gens=gens) == iso_check(twin, alg, gens=gens) == m
    identity = list(range(alg.size))
    for op in _shared_ops(alg):
        ar = alg.signature.arity(op)
        for _ in range(2):
            position = tuple(rng.randrange(alg.size) for _ in range(ar))
            value = (alg.apply(op, *position) + 1 + rng.randrange(alg.size - 1)) % alg.size
            fault = mutate_table(alg, op, position, value)
            for pair in ((fault, alg), (alg, fault)):
                want = oracles.first_hom_failure(*pair, identity)
                assert want is not None
                assert first_hom_failure(*pair, identity) == want, (op, position)
                twins = tuple(map(_twin, pair))
                assert first_hom_failure(*twins, identity) == want, (op, position)
                if alg.size <= 16:
                    assert product_of(*pair) == product_of(*twins), (op, position)
