"""Filters, spectra, Zariski sets and theory pairs."""

from itertools import combinations

import numpy as np
import pytest

import oracles
from reslat.algebra import ChainSpec, core_reduct, make_chain, product
from reslat.corpus import corpus_algebras
from reslat.errors import DomainError, PreconditionError, ResourceError
from reslat.kripke import mutate_table
from reslat.spectra import (
    TheoryPair,
    enumerate_filters,
    generate_filter,
    hausdorff_witness,
    nowhere_dense_check,
    pair_complete_extension,
    pair_consistent,
    prime_lattice_filters,
    upset,
    verify_dm_lemma,
    zariski_sets,
)


def luk(n):
    return make_chain(ChainSpec("lukasiewicz", n))


def godel(n):
    return make_chain(ChainSpec("godel", n))


def ba4():
    l2 = luk(2)
    return product([l2, l2])


# ---- filter generation -------------------------------------------------------


def test_fl_of_one_is_singleton():
    for alg in (luk(3), godel(4), ba4()):
        assert generate_filter(alg, [alg.one]).members == {alg.one}


def test_fl_of_half_in_luk3_is_improper():
    f = generate_filter(luk(3), [1])
    assert f.members == {0, 1, 2}
    assert not f.proper


def test_fl_of_half_in_godel3():
    assert generate_filter(godel(3), [1]).members == {1, 2}


def brute_force_filters(alg):
    """Oracle: scan all subsets for those that are their own generated
    filter (improper one included)."""
    out = []
    for r in range(1, alg.size + 1):
        for members in combinations(range(alg.size), r):
            if generate_filter(alg, members).members == set(members):
                out.append(frozenset(members))
    return sorted(out, key=lambda f: sum(1 << i for i in f))


def test_enumeration_matches_brute_force():
    for alg in (luk(3), luk(4), godel(3), godel(4), ba4()):
        every = brute_force_filters(alg)
        fast = [f.members for f in enumerate_filters(alg)]
        assert fast == [f for f in every if alg.zero not in f]
        # Fl(seed) is the least filter over the seed
        for r in range(3):
            for seed in combinations(range(alg.size), r):
                least = frozenset.intersection(*[f for f in every if f >= set(seed)])
                assert generate_filter(alg, seed).members == least, (alg.name, seed)


def test_filters_are_principal_over_idempotents():
    # consequence of integrality: every filter is the up-set of an
    # idempotent; checked against the enumeration
    for alg in (luk(4), godel(4), ba4()):
        expected = sorted(
            (
                upset(alg, m)
                for m in range(alg.size)
                if m != alg.zero and alg.star(m, m) == m
            ),
            key=lambda f: sum(1 << i for i in f),
        )
        assert [f.members for f in enumerate_filters(alg)] == expected


def test_luk3_proper_filters():
    filters = enumerate_filters(luk(3))
    assert [sorted(f.members) for f in filters] == [[2]]
    assert [f.members for f in enumerate_filters(luk(3), "maximal")] == [frozenset([2])]
    assert [f.members for f in enumerate_filters(luk(3), "prime")] == [frozenset([2])]


def test_godel3_filters():
    assert [sorted(f.members) for f in enumerate_filters(godel(3))] == [[2], [1, 2]]
    assert [sorted(f.members) for f in enumerate_filters(godel(3), "maximal")] == [[1, 2]]
    assert [sorted(f.members) for f in enumerate_filters(godel(3), "prime")] == [[2], [1, 2]]


def test_ba4_has_two_maximal_filters():
    maxes = enumerate_filters(ba4(), "maximal")
    assert len(maxes) == 2
    assert all(len(f.members) == 2 for f in maxes)


def test_enumeration_bound():
    big = product([core_reduct(luk(4)), core_reduct(luk(4))])
    with pytest.raises(ResourceError):
        enumerate_filters(big)  # default bound is 12
    assert enumerate_filters(big, bound=16)


def test_max_subset_of_spec():
    for alg in (luk(4), godel(5), ba4()):
        primes = {f.members for f in enumerate_filters(alg, "prime")}
        for f in enumerate_filters(alg, "maximal"):
            assert f.members in primes


def test_chain_proper_filters_are_prime():
    for make in (luk, godel):
        for n in range(2, 7):
            alg = make(n)
            proper = {f.members for f in enumerate_filters(alg)}
            prime = {f.members for f in enumerate_filters(alg, "prime")}
            assert proper == prime


# ---- Zariski sets -------------------------------------------------------------


def test_dm_bounds():
    for alg in (godel(3), ba4()):
        sp = zariski_sets(alg)
        assert sp.DM(alg.zero) == frozenset(range(len(sp.max_points)))
        assert sp.DM(alg.one) == frozenset()


def test_vm_meet_identity():
    alg = ba4()
    sp = zariski_sets(alg)
    for a in range(alg.size):
        for b in range(alg.size):
            assert oracles.VM(sp, a) & oracles.VM(sp, b) == oracles.VM(sp, alg.meet(a, b))


def test_vm_is_one_read_only_matrix_under_dm():
    """Row a of `vm` is V_M(a) and D_M(a) is its complement, on the corpus."""
    for alg in corpus_algebras():
        sp = zariski_sets(alg, bound=64)
        assert not sp.vm.flags.writeable
        assert sp.vm.shape == (alg.size, len(sp.max_points))
        for a in range(alg.size):
            assert frozenset(np.flatnonzero(sp.vm[a]).tolist()) == oracles.VM(sp, a)
            assert sp.DM(a) == frozenset(range(len(sp.max_points))) - oracles.VM(sp, a)


def test_vm_of_half_in_g3():
    sp = zariski_sets(godel(3))
    pts = [sorted(sp.max_points[i].members) for i in oracles.VM(sp, 1)]
    assert pts == [[1, 2]]


def test_dm_lemma_on_g3_all_items():
    assert verify_dm_lemma(godel(3)).passed


def test_dm_lemma_on_chains_and_products():
    for alg in (luk(3), luk(5), godel(4)):
        assert verify_dm_lemma(alg).passed
    p = product([core_reduct(luk(3)), core_reduct(godel(3))])
    assert verify_dm_lemma(p).passed


def test_every_dm_lemma_item_fails_on_some_single_fault():
    """No item of the lemma is blind to the algebra: over every single-entry
    fault of join, meet, star and imp on luk:3..5, godel:3..5 and BA4
    (1,520 algebras), each item it checks fails at least once."""
    items = {"i-dm-join", "ii-dm-meet", "iii-dm-cover", "v-vm-meet", "vi-separation-iff"}
    algebras = [chain(n) for chain in (luk, godel) for n in (3, 4, 5)] + [ba4()]
    fired, faults = set(), 0
    for alg in algebras:
        n = alg.size
        for op in ("join", "meet", "star", "imp"):
            for a in range(n):
                for b in range(n):
                    for value in range(n):
                        if value != alg.tables[op][a, b]:
                            faulty = mutate_table(alg, op, (a, b), value)
                            fired.update(aid for aid, _ in verify_dm_lemma(faulty).violations)
                            faults += 1
    assert faults == 1520
    assert fired == items


def test_dm_lemma_item_iii_with_zero():
    alg = godel(3)
    sp = zariski_sets(alg)
    fl = generate_filter(alg, [alg.zero])
    assert len(fl.members) == alg.size
    assert not sp.vm[alg.zero].any()  # D_M{0} is all of Max


def test_vi_on_max_backward_fails_on_luk3():
    # documented defect of the literal reading: 1/2 lies in no proper
    # star-filter of luk:3, so V_M cannot separate 1/2 from 0; the lemma's
    # backward direction therefore reads over prime lattice filters
    alg = luk(3)
    sp = zariski_sets(alg)
    assert oracles.VM(sp, 1) <= oracles.VM(sp, 0)
    assert not alg.leq(1, 0)


def test_prime_lattice_filters_separate():
    for alg in (luk(3), luk(6), godel(6), ba4()):
        primes = prime_lattice_filters(alg, bound=40)
        for a in range(alg.size):
            for b in range(alg.size):
                va = frozenset(i for i, f in enumerate(primes) if a in f)
                vb = frozenset(i for i, f in enumerate(primes) if b in f)
                assert alg.leq(a, b) == (va <= vb)


def test_dm_antitone():
    alg = godel(4)
    sp = zariski_sets(alg)
    for a in range(alg.size):
        for b in range(alg.size):
            if alg.leq(a, b):
                assert sp.DM(b) <= sp.DM(a)


def test_basic_opens_cover_and_separate():
    for alg in (godel(3), ba4()):
        sp = zariski_sets(alg)
        full = frozenset(range(len(sp.max_points)))
        cover = frozenset()
        for a in range(alg.size):
            cover |= sp.DM(a)
        assert cover == full
        for i in range(len(sp.max_points)):
            for j in range(i + 1, len(sp.max_points)):
                assert any(
                    (i in sp.DM(a)) != (j in sp.DM(a)) for a in range(alg.size)
                )


# ---- nowhere density -----------------------------------------------------------


def test_join_residual_empty():
    """Every 2-part join and meet residual is empty on chains and BA4; a
    join fault read against the healthy space leaves V_M(join(0, 0)) = Max
    outside both parts."""
    for alg in (ba4(), godel(4), luk(5)):
        assert nowhere_dense_check(alg) == (True, None)
    faulty = mutate_table(ba4(), "join", (0, 0), 3)
    assert nowhere_dense_check(faulty, zariski_sets(ba4())) == (False, ("join", (0, 0)))


def test_meet_residual_empty():
    """With joins intact the meet residuals are read: meet(3, 3) = 0 leaves
    V_M(3) & V_M(3) = Max outside V_M(0), and no earlier pair changed."""
    faulty = mutate_table(ba4(), "meet", (3, 3), 0)
    assert nowhere_dense_check(faulty, zariski_sets(ba4())) == (False, ("meet", (3, 3)))


def test_trivial_single_part():
    """A one-part decomposition a = a is the pair (a, a) of an idempotent
    join or meet, whose residual V_M(a) - V_M(a) is empty.  join(1, 1) = 0
    lowers the join, which leaves the residual empty; meet(1, 1) = 0 leaves
    V_M(1) outside V_M(0) and is found at (1, 1)."""
    alg = godel(3)
    faulty = mutate_table(alg, "join", (alg.one, alg.one), alg.zero)
    assert nowhere_dense_check(faulty, zariski_sets(alg)) == (True, None)
    faulty = mutate_table(alg, "meet", (alg.one, alg.one), alg.zero)
    assert nowhere_dense_check(faulty, zariski_sets(alg)) == (False, ("meet", (alg.one, alg.one)))


def test_max_topology_is_discrete():
    # finite Hausdorff forces discreteness; asserted, not assumed: every
    # point of Max is a basic open D_M(a)
    for alg in (godel(3), godel(4), ba4(), luk(4)):
        sp = zariski_sets(alg)
        basis = set(sp.basis.values())
        assert all(frozenset([p]) in basis for p in range(len(sp.max_points)))


# ---- Hausdorff witnesses --------------------------------------------------------


def test_hausdorff_on_ba4():
    alg = ba4()
    sp = zariski_sets(alg)
    m, n = sp.max_points
    a, b = hausdorff_witness(alg, m, n, sp)
    assert sp.DM(a) & sp.DM(b) == frozenset()
    assert next(iter({i for i, f in enumerate(sp.max_points) if f.members == m.members})) in sp.DM(a)


def test_hausdorff_rejects_equal_filters():
    alg = ba4()
    sp = zariski_sets(alg)
    with pytest.raises(DomainError):
        hausdorff_witness(alg, sp.max_points[0], sp.max_points[0], sp)


def test_g4_single_maximal_filter_vacuous():
    maxes = enumerate_filters(godel(4), "maximal")
    assert len(maxes) == 1  # nested proper filters: no pairs to separate


# ---- theory pairs ----------------------------------------------------------------


def test_pair_on_same_element_inconsistent():
    alg = luk(3)
    assert not pair_consistent(TheoryPair(alg, frozenset([1]), frozenset([1])))


def test_one_zero_pair_consistent():
    alg = luk(3)
    assert pair_consistent(TheoryPair(alg, frozenset([alg.one]), frozenset([alg.zero])))
    assert pair_consistent(TheoryPair(alg, frozenset([1]), frozenset([alg.zero])))


def test_consistency_matches_subset_scan():
    # subset-scan oracle vs the single-comparison implementation
    alg = godel(4)

    def oracle(gamma, delta):
        for gs in range(len(gamma) + 1):
            for g_sub in combinations(sorted(gamma), gs):
                meet = alg.one
                for x in g_sub:
                    meet = alg.meet(meet, x)
                for ds in range(len(delta) + 1):
                    for d_sub in combinations(sorted(delta), ds):
                        join = alg.zero
                        for x in d_sub:
                            join = alg.join(join, x)
                        if alg.leq(meet, join):
                            return False
        return True

    universe = range(alg.size)
    for gamma in combinations(universe, 2):
        for delta in combinations(universe, 2):
            tp = TheoryPair(alg, frozenset(gamma), frozenset(delta))
            assert pair_consistent(tp) == oracle(gamma, delta)


def test_completion_of_one_zero():
    alg = luk(3)
    tp = TheoryPair(alg, frozenset([alg.one]), frozenset([alg.zero]))
    done = pair_complete_extension(tp)
    assert done.is_complete()
    assert pair_consistent(done)


def test_completion_fixpoint():
    alg = luk(2)
    done = pair_complete_extension(TheoryPair(alg, frozenset([1]), frozenset([0])))
    again = pair_complete_extension(done)
    assert again.gamma == done.gamma and again.delta == done.delta


def test_empty_pair_completion_in_luk2():
    alg = luk(2)
    done = pair_complete_extension(TheoryPair(alg, frozenset(), frozenset()))
    assert done.gamma == {1} and done.delta == {0}


def test_completion_requires_consistency():
    alg = luk(3)
    with pytest.raises(PreconditionError):
        pair_complete_extension(TheoryPair(alg, frozenset([0]), frozenset()))


def test_completion_gamma_is_filter_when_filter_seeded():
    # gamma restricted to a filter seed with delta = {0} completes to a filter
    for alg in (godel(4), ba4()):
        seed = generate_filter(alg, [alg.one])
        tp = TheoryPair(alg, frozenset(seed.members), frozenset([alg.zero]))
        done = pair_complete_extension(tp)
        assert generate_filter(alg, done.gamma).members == done.gamma


def test_spectrum_report_shape():
    sp = zariski_sets(godel(3))
    rep = sp.report()
    assert rep["format"] == "reslat/1"
    assert all(p["prime"] for p in rep["points"])
    assert set(rep["basis"]) == {"0", "1", "2"}
