"""FiniteAlgebra.restrict and the derived algebras built on it, compared
with the per-entry table loops they replaced (tests/oracles.py)."""

from itertools import combinations

import pytest

import oracles
from reslat.algebra import CORE_OPS, ChainSpec, core_reduct, lattice_reduct, make_chain
from reslat.amalgam import all_congruences, quotient
from reslat.corpus import corpus_algebras
from reslat.free import boolean_variety, free_algebra, relativize
from reslat.kripke import KripkeSystem, mutate_table, neat_reduct, random_kripke, set_algebra
from reslat.sheaf import sheaf_reduct


def assert_same(got, want):
    """Same name, signature, tables, labels and embedding."""
    assert got.signature == want.signature
    assert got.to_json() == want.to_json()
    assert getattr(got, "embedding", None) == getattr(want, "embedding", None)


def assert_reduct(got, alg, names):
    assert got.signature.names() == list(names)
    assert oracles.table_lists(got) == {k: oracles.table(alg, k) for k in names}
    assert (got.size, got.labels) == (alg.size, alg.labels)


def fault_positions(alg, name, arity):
    """A handful of entries of one table: the corners and a diagonal."""
    if arity == 0:
        return [()]
    ends = sorted({0, alg.size // 2, alg.size - 1})
    if arity == 1:
        return [(i,) for i in ends]
    return [(i, j) for i in ends for j in ends]


def test_restrict_keeps_parent_order_and_maps_entries():
    alg = make_chain(ChainSpec("lukasiewicz", 5))
    # the chain {0, 2, 4} with every result rounded down to an even element
    index = [0, 0, 1, 1, 2]
    got, witness = alg.restrict("evens", [0, 2, 4], index, ["meet", "one"])
    assert witness is None
    assert got.signature.ops == (("meet", 2), ("one", 0))
    assert got.tables["meet"].tolist() == [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    assert got.one == 2


def test_restrict_reports_first_entry_outside():
    alg = make_chain(ChainSpec("lukasiewicz", 5))
    index = [-1, -1, 0, 1, 2]  # the up-set {2, 3, 4}
    got, witness = alg.restrict("top", [2, 3, 4], index)
    # join and meet stay inside; star(2, 2) = 0 is the first result outside
    assert got is None and witness == ("star", (2, 2))
    got, witness = alg.restrict("top", [2, 3, 4], index, ["join", "zero"])
    assert got is None and witness == ("zero", ())


@pytest.mark.parametrize("alg", corpus_algebras(), ids=lambda a: a.name)
def test_derived_algebras_of_corpus_match_oracles(alg):
    assert_reduct(core_reduct(alg), alg, [n for n, _ in CORE_OPS])
    assert_reduct(lattice_reduct(alg), alg, ["join", "meet", "zero", "one"])
    blo = sheaf_reduct(alg)
    assert_reduct(blo, alg, blo.signature.names())
    for b in range(alg.size):
        assert_same(relativize(alg, b), oracles.relativize(alg, b))
    if alg.size <= 20:
        for theta in all_congruences(alg):
            got, proj = quotient(alg, theta)
            want, want_proj = oracles.quotient(alg, theta)
            assert_same(got, want)
            assert proj == want_proj


def test_relativizations_of_free_boolean_algebra_match_oracle():
    fr3 = free_algebra(boolean_variety(), 3).algebra
    for b in range(0, fr3.size, 17):
        assert_same(relativize(fr3, b), oracles.relativize(fr3, b))


@pytest.mark.parametrize("seed", range(12))
def test_neat_reducts_of_random_systems_match_oracle(seed):
    _, ksa = random_kripke(seed, 2, 2, 2)
    alg = ksa.algebra
    for r in range(ksa.alpha + 1):
        for J in combinations(range(ksa.alpha), r):
            got, witness = neat_reduct(alg, J)
            want, want_witness = oracles.neat_reduct(alg, J)
            assert witness == want_witness
            if want is not None:
                assert_same(got, want)


def test_single_entry_faults_match_oracle():
    ksa = set_algebra(KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2), with_diagonals=True)
    alg = ksa.algebra
    witnesses = set()
    for name, arity in alg.signature.ops:
        for pos in fault_positions(alg, name, arity):
            v = (alg.apply(name, *pos) + 1) % alg.size
            got = mutate_table(alg, name, pos, v)
            assert_same(got, oracles.mutate_table(alg, name, pos, v))
            assert got.np_table(name)[pos] == v and alg.np_table(name)[pos] != v
            for J in ([], [0], [1]):
                reduct, witness = neat_reduct(got, J)
                want, want_witness = oracles.neat_reduct(got, J)
                assert witness == want_witness
                if want is not None:
                    assert_same(reduct, want)
                witnesses.add(witness)
    assert len(witnesses) > 1  # some faults leave the candidate set open
