"""The closures on integer keys against the loops they replaced in
tests/oracles.py: the frontier index closure behind `subalgebra_generate`
and `homomorphisms`, and `free_algebra` on packed row keys.  Each
comparison runs again with the gathers cut into chunks of 1 and 7
entries, so that chunk boundaries fall inside every round."""

import random
from bisect import bisect_left
from functools import lru_cache

import numpy as np
import pytest

import oracles
from reslat import algebra
from reslat.algebra import (
    ChainSpec,
    core_reduct,
    homomorphisms,
    iso_check,
    make_chain,
    product,
    subalgebra_generate,
)
from reslat.corpus import corpus_algebras
from reslat.free import (
    VarietySpec,
    _distinct,
    _RowKeys,
    _search,
    boolean_variety,
    distributive_lattice_variety,
    free_algebra,
)
from reslat.kripke import mutate_table

CHUNKS = (algebra._GRID_CHUNK, 1, 7)
CORPUS = corpus_algebras()


@lru_cache(maxsize=None)
def big_free():
    """BA Fr_3 (256 elements) and DL Fr_4 (168 elements)."""
    return free_algebra(boolean_variety(), 3), free_algebra(distributive_lattice_variety(), 4)


def random_seed(rng, alg, most):
    return [rng.randrange(alg.size) for _ in range(rng.randint(0, most))]


def test_sg_matches_oracle_on_corpus(monkeypatch):
    rng = random.Random(11)
    cases = [(alg, random_seed(rng, alg, 3)) for alg in CORPUS for _ in range(4)]
    want = [oracles.subalgebra_generate(alg, seed) for alg, seed in cases]
    for chunk in CHUNKS:
        monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
        got = [subalgebra_generate(alg, seed) for alg, seed in cases]
        assert got == want, chunk


def test_sg_matches_oracle_on_free_algebras(monkeypatch):
    rng = random.Random(12)
    cases = [(fr.algebra, random_seed(rng, fr.algebra, 3)) for fr in big_free() for _ in range(5)]
    cases += [(fr.algebra, seed) for fr in big_free() for seed in ([], fr.generators)]
    want = [oracles.subalgebra_generate(alg, seed) for alg, seed in cases]
    assert len({len(s) for s in want}) > 5
    for chunk in CHUNKS:
        monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
        assert [subalgebra_generate(alg, seed) for alg, seed in cases] == want, chunk


def test_closure_stops_at_a_chunk_inside_a_round(monkeypatch):
    """Sg of one, two and three generators of Fr_3(BA) takes rounds whose
    frontier spans many one-row chunks; the last chunk of each counts."""
    fr = big_free()[0]
    monkeypatch.setattr(algebra, "_GRID_CHUNK", 1)
    for k in (1, 2, 3):
        seed = fr.generators[:k]
        assert subalgebra_generate(fr.algebra, seed) == oracles.subalgebra_generate(fr.algebra, seed)


def same_signature_pairs(rng, count, most=16):
    small = [a for a in CORPUS if a.size <= most]
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(small), rng.choice(small)
        if a.signature.ops == b.signature.ops:
            pairs.append((a, b))
    return pairs


def closed_map(a, b, seed):
    """The library closure of a pinned map as a dict, or None."""
    closed = algebra._closure(a, seed.keys(), b, seed.values())
    if closed is None:
        return None
    inside, image = closed
    return {int(x): int(image[x]) for x in np.flatnonzero(inside)}


def oracle_map(a, b, seed):
    return oracles._close_map(a, b, seed, oracles.subalgebra_generate(a, list(seed)))


def random_pins(rng, a, b, most=2):
    return {rng.randrange(a.size): rng.randrange(b.size) for _ in range(rng.randint(0, most))}


def test_closed_maps_match_oracle(monkeypatch):
    """Random pins, pins that contradict the constants, and targets with
    one faulted table entry: the map or None, as the loop closure says."""
    rng = random.Random(13)
    cases = []
    for a, b in same_signature_pairs(rng, 60):
        cases.append((a, b, random_pins(rng, a, b)))
        cases.append((a, a, {x: x for x in random_pins(rng, a, a)}))  # the identity on Sg
        cases.append((a, b, {a.zero: b.one, **random_pins(rng, a, b, 1)}))
        op = rng.choice([op for op, ar in b.signature.ops if ar == 2])
        pos = (rng.randrange(b.size), rng.randrange(b.size))
        faulted = mutate_table(b, op, pos, (b.apply(op, *pos) + 1) % b.size)
        cases.append((a, faulted, random_pins(rng, a, faulted)))
    want = [oracle_map(a, b, seed) for a, b, seed in cases]
    assert sum(m is None for m in want) > len(cases) // 3
    assert sum(m is not None and len(m) > 2 for m in want) > len(cases) // 10
    for chunk in CHUNKS:
        monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
        assert [closed_map(a, b, seed) for a, b, seed in cases] == want, chunk


def test_closed_map_conflicts_on_constants_and_images():
    l3, l2 = make_chain(ChainSpec("lukasiewicz", 3)), make_chain(ChainSpec("lukasiewicz", 2))
    assert closed_map(l3, l2, {0: 1}) is None  # 0 is the constant zero
    assert oracle_map(l3, l2, {0: 1}) is None
    # 1/2 -> 1 forces neg(1/2) = 1/2 -> neg(1) = 0: two images meet at 1/2
    assert closed_map(l3, l2, {1: 1}) is None
    assert oracle_map(l3, l2, {1: 1}) is None
    assert closed_map(l3, l3, {1: 1}) == oracle_map(l3, l3, {1: 1}) == {0: 0, 1: 1, 2: 2}


def test_homomorphisms_match_oracle(monkeypatch):
    rng = random.Random(14)
    cases = []
    for a, b in same_signature_pairs(rng, 40, most=9):
        cases.append((a, b, {}))
        cases.append((a, b, {"injective": True}))
        cases.append((a, b, {"seed": random_pins(rng, a, b, 1)}))
        cases.append((a, b, {"seed": {a.one: b.zero}}))  # contradicts a constant
    l4 = core_reduct(make_chain(ChainSpec("lukasiewicz", 4)))
    faulted = mutate_table(l4, "imp", (1, 2), 0)
    cases += [(l4, faulted, {}), (faulted, l4, {}), (faulted, faulted, {"injective": True})]
    want = [oracles.homomorphisms(a, b, **kw) for a, b, kw in cases]
    assert sum(bool(w) for w in want) > len(cases) // 4
    assert sum(not w for w in want) > len(cases) // 4
    for chunk in CHUNKS:
        monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
        assert [homomorphisms(a, b, **kw) for a, b, kw in cases] == want, chunk


def test_seeded_isomorphism_search_matches_oracle(monkeypatch):
    """The product-decomposition search: Fr_2(BA) into Fr_1(BA)^2,
    seeded with the canonical images, then with a wrong one."""
    fr1, fr2 = (free_algebra(boolean_variety(), n) for n in (1, 2))
    prod = product([fr1.algebra, fr1.algebra])
    size = fr1.size
    canonical = {fr2.generators[0]: fr1.generators[0] * size + fr1.generators[0]}
    canonical[fr2.generators[1]] = fr1.algebra.one * size + fr1.algebra.zero
    wrong = dict(canonical)
    wrong[fr2.generators[1]] = fr1.algebra.zero * size + fr1.algebra.zero
    kw = dict(injective=True, gens=list(fr2.generators), limit=1)
    for seed in (canonical, wrong):
        want = oracles.homomorphisms(fr2.algebra, prod, seed=seed, **kw)
        for chunk in CHUNKS:
            monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
            assert homomorphisms(fr2.algebra, prod, seed=seed, **kw) == want
    assert iso_check(fr2.algebra, prod) is not None


# ---- free algebras on packed keys --------------------------------------------------


def godel_variety(k):
    return VarietySpec((make_chain(ChainSpec("godel", k)),))


FREE_CASES = [
    pytest.param(boolean_variety, n, id="ba-%d" % n) for n in (1, 2, 3)
] + [
    pytest.param(distributive_lattice_variety, n, id="dl-%d" % n) for n in (1, 2, 3, 4)
] + [
    pytest.param(lambda k=k: godel_variety(k), 2, id="godel:%d-2" % k) for k in (3, 4, 5)
]


def assert_same_free(got, want):
    assert got.algebra.size == want.algebra.size
    assert got.generators == want.generators
    assert got.algebra.labels == want.algebra.labels
    assert oracles.table_lists(got.algebra) == oracles.table_lists(want.algebra)
    assert got.vectors.dtype == want.vectors.dtype == np.int32
    assert (got.vectors == want.vectors).all()


@lru_cache(maxsize=None)
def oracle_free(variety, n):
    return oracles.free_algebra(variety(), n)


@pytest.mark.parametrize("variety, n", FREE_CASES)
def test_free_algebra_matches_void_key_oracle(variety, n, monkeypatch):
    want = oracle_free(variety, n)
    for chunk in CHUNKS:
        monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
        assert_same_free(free_algebra(variety(), n), want)


def test_godel5_rows_take_two_words():
    variety = godel_variety(5)
    fr = free_algebra(variety, 2)
    assert _RowKeys([5] * len(fr.coords)).words == 2  # 25 coordinates of 3 bits
    assert fr.size == 342


@pytest.mark.parametrize("copies", [1, 20, 33, 70])
def test_repeated_coordinates_give_the_same_algebra(copies):
    """Fr_2(BA) on its four valuations repeated: rows of 4 .. 280 bits,
    one to five words, the same algebra as on one copy."""
    ba = boolean_variety()
    coords = [(0, v) for v in ((0, 0), (0, 1), (1, 0), (1, 1))] * copies
    got = free_algebra(ba, 2, coords=coords)
    want = oracles.free_algebra(ba, 2, coords=coords)
    assert_same_free(got, want)
    assert oracles.table_lists(got.algebra) == oracles.table_lists(free_algebra(ba, 2).algebra)


@pytest.mark.parametrize("sizes", [[2] * 64, [2] * 65, [3] * 40, [5, 1000, 3, 7] * 9, [300] * 17])
def test_packed_key_order_is_row_order(sizes):
    rng = np.random.default_rng(len(sizes))
    rows = np.array([rng.integers(0, s, 300) for s in sizes]).T
    rows[150:] = rows[:150]  # duplicates
    rows[:20, -1] = np.array(sizes)[-1] - 1  # the last coordinate's top value
    packing = _RowKeys(sizes)
    keys = packing.encode(rows)
    assert keys.shape == (packing.words, len(rows))
    assert (packing.decode(keys).T == rows).all()
    want = sorted(set(map(tuple, rows.tolist())))
    known = _distinct(keys)
    assert [tuple(r) for r in packing.decode(known).T.tolist()] == want
    probe = np.array([rng.integers(0, s, 50) for s in sizes]).T
    probe[:10] = rows[:10]
    at = _search(known, packing.encode(probe))
    assert at.tolist() == [bisect_left(want, tuple(r)) for r in probe.tolist()]
