"""Principal closed sets, bitmask spectra and ideal congruences, each
against the reference it replaced in tests/oracles.py: the DFS of
`enumerate_closed`, the loop prime tests, the one-set `splits`, the
frozenset `verify_dm_lemma` and the union-find stalk congruence.  The
NextClosure fallback of `enumerate_closed` is checked against the DFS on
partial orders and against a scan of every subset on faulty tables."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reslat import algebra, amalgam
from reslat.algebra import (
    ChainSpec,
    FiniteAlgebra,
    Signature,
    core_reduct,
    enumerate_closed,
    generate_closed,
    lattice_reduct,
    make_chain,
    member_rows,
    principal_closed,
    product,
    splits,
)
from reslat.amalgam import enumerate_ideals, ideal_congruence, ideal_generate
from reslat.corpus import corpus_algebras
from reslat.free import boolean_variety, free_algebra
from reslat.kripke import random_kripke
from reslat.sheaf import prime_ideals_of, regular_ideals_open_sets, sheaf_reduct, zero_dim
from reslat.spectra import prime_filters, verify_dm_lemma, zariski_sets


def kripke_algebras():
    """The distinct set algebras of random_kripke(s, 2, 2, 2), s < 200,
    with at most 16 elements."""
    seen, out = set(), []
    for s in range(200):
        _, ksa = random_kripke(s, 2, 2, 2)
        alg = ksa.algebra
        key = (alg.size, alg.signature.ops, repr(oracles.table_lists(alg)))
        if alg.size <= 16 and key not in seen:
            seen.add(key)
            out.append(alg)
    return out


CORPUS = corpus_algebras()
KRIPKE = kripke_algebras()
FAMILIES = {
    "corpus": CORPUS,
    "kripke": KRIPKE,
    "lattice": [lattice_reduct(a) for a in CORPUS + KRIPKE],
}
CHAINS = [make_chain(ChainSpec(kind, n)) for kind in ("godel", "lukasiewicz") for n in (3, 4, 5)]
SMALL = CHAINS + [
    product([core_reduct(CHAINS[0]), core_reduct(CHAINS[3])]),
    product([core_reduct(make_chain(ChainSpec("lukasiewicz", 2)))] * 2),
]  # the fault and gate tests: algebras of 3 to 9 elements


def problems(alg):
    """(universe, up, const, binary, unary) of the filters, lattice
    filters and ideals of the algebra."""
    every = range(alg.size)
    add = "oplus" if "oplus" in alg.signature else "join"
    out = [(every, True, alg.one, ["meet"], []), (every, False, alg.zero, [add], [])]
    if "star" in alg.signature:
        out.append((every, True, alg.one, ["star"], []))
    return out


def kernel_ops(alg, operators):
    """(binary, unary) closure ops of a kernel ideal: oplus (else join) and
    the operators."""
    return [oracles.additive(alg)], list(operators)


def nr_problems(alg):
    """Kernel-ideal problems on the elements fixed by every operator but
    the c_j and q_j with j in J, for every J; J empty is `dual_sheaf`'s.
    Each is posed on the sheaf reduct of the algebra restricted to those
    operators."""
    dims = sorted(int(n[2:]) for n in alg.signature.names() if n.startswith("c_"))
    extra = alg.extra_operator_names()
    rest = [n for n in alg.signature.names() if n not in extra]
    every = range(alg.size)
    out = []
    for k in range(len(dims) + 1):
        for J in combinations(dims, k):
            outside = [
                f for f in extra
                if not (f.startswith(("c_", "q_")) and int(f[2:]) in J)
            ]
            reduct = sheaf_reduct(alg.restrict(alg.name, every, every, rest + outside, alg.labels)[0])
            nr = [x for x in range(alg.size) if all(alg.apply(f, x) == x for f in outside)]
            out.append((reduct, nr, outside))
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_enumerate_closed_matches_dfs(family):
    for alg in FAMILIES[family]:
        for problem in problems(alg):
            closed = enumerate_closed(alg, *problem)
            assert closed == oracles.enumerate_closed(alg, *problem), (alg.name, problem)
            assert prime_filters(alg, closed) == [f for f in closed if oracles.is_prime_filter(alg, f)]


def test_kernel_ideals_over_nr_match_dfs():
    for alg in CORPUS + KRIPKE:
        for reduct, nr, outside in nr_problems(alg):
            ideals = enumerate_ideals(reduct, outside, nr)
            ops = kernel_ops(reduct, outside)
            assert ideals == oracles.enumerate_closed(reduct, nr, False, reduct.zero, *ops)
            assert prime_ideals_of(reduct, nr) == oracles.prime_ideals_of(
                reduct, nr, outside
            )
            every = range(reduct.size)
            ideals = enumerate_ideals(reduct, outside, every)
            assert ideals == oracles.enumerate_closed(reduct, every, False, reduct.zero, *ops)
            assert ideal_congruence(reduct, ideals).tolist() == stalk_congruences(reduct, ideals)


def test_regular_ideals_match_generated_ideals():
    """Regular ideals (Ig(I & Zd) = I) read off the enumeration agree with
    one `ideal_generate` per DFS ideal."""
    for alg in CORPUS + KRIPKE:
        ops = alg.extra_operator_names()
        reduct = sheaf_reduct(alg)
        zd = set(zero_dim(alg))
        ideals = oracles.enumerate_closed(reduct, range(reduct.size), False, reduct.zero,
                                          *kernel_ops(reduct, ops))
        regular = [i for i in ideals if ideal_generate(reduct, i & zd, ops) == i]
        report = regular_ideals_open_sets(alg)
        assert report["regular_ideals"] == len(regular), alg.name


def stalk_congruences(alg, ideals):
    """One union-find closure per ideal, as the rows of a list."""
    return [list(oracles.stalk_congruence(alg, ideal)) for ideal in ideals]


def test_ideal_congruence_matches_union_find_on_lattices():
    for alg in FAMILIES["lattice"]:
        ideals = enumerate_closed(alg, range(alg.size), False, alg.zero, ["join"])
        assert ideal_congruence(alg, ideals).tolist() == stalk_congruences(alg, ideals)


@pytest.mark.parametrize("family", ["corpus", "kripke"])
def test_ideal_congruence_matches_union_find_on_algebras(family):
    """All ideals of an algebra in one call, which also checks implication
    and star: a join partition that does not respect them falls back."""
    for alg in FAMILIES[family]:
        ideals = enumerate_closed(alg, range(alg.size), False, alg.zero, [oracles.additive(alg)])
        assert ideal_congruence(alg, ideals).tolist() == stalk_congruences(alg, ideals), alg.name


def lattice(name, covers, n):
    """The bounded lattice on 0..n-1 (0 bottom, n-1 top) whose order is
    generated by the covering pairs."""
    le = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        le[a][b] = True
    for k in range(n):
        for a in range(n):
            for b in range(n):
                le[a][b] = le[a][b] or (le[a][k] and le[k][b])

    def greatest_lower(a, b, le):
        common = [c for c in range(n) if le[c][a] and le[c][b]]
        return next(c for c in common if all(le[d][c] for d in common))

    ge = [list(column) for column in zip(*le)]
    meet = [[greatest_lower(a, b, le) for b in range(n)] for a in range(n)]
    join = [[greatest_lower(a, b, ge) for b in range(n)] for a in range(n)]
    sig = Signature((("join", 2), ("meet", 2), ("zero", 0), ("one", 0)))
    return FiniteAlgebra(name, n, sig, {"join": join, "meet": meet, "zero": 0, "one": n - 1})


def test_ideal_congruence_falls_back_off_distributive_lattices(monkeypatch):
    """In N5 and M3 the partition by a join m is not always a congruence,
    so the union-find closure answers for those rows of the batched call,
    and for no others.  In N5 (0 < 1 < 3 < 4, 0 < 2 < 4)
    the ideal {0, 1} gives the classes {0, 1}, {2, 4}, {3}; the least
    congruence collapsing it also puts 3 with 0."""
    n5 = lattice("N5", [(0, 1), (1, 3), (0, 2), (2, 4), (3, 4)], 5)
    m3 = lattice("M3", [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 5)
    fallbacks, rows = [], 0

    def closure(*args):
        fallbacks.append(args)
        return oracles.congruence_closure(*args)

    monkeypatch.setattr(amalgam, "congruence_closure", closure)
    for alg in (n5, m3):
        ideals = enumerate_closed(alg, range(alg.size), False, alg.zero, ["join"])
        assert ideal_congruence(alg, ideals).tolist() == stalk_congruences(alg, ideals)
        rows += len(ideals)
    assert 0 < len(fallbacks) < rows  # some rows take the closure, not all
    assert ideal_congruence(n5, [{0, 1}]).tolist() == [[0, 0, 2, 0, 2]]


def split_cases(alg, sets):
    """Per op and universe, the batched `splits` of `sets` and the
    one-set form's answers."""
    n = alg.size
    rows = member_rows(n, sets)
    for op in ("join", "meet"):
        for universe in (None, range(1, n), range(0, n, 2)):
            want = [oracles.splits(alg, op, s, universe) for s in sets]
            yield splits(alg, op, rows, universe).tolist(), want


def test_splits_matches_per_set_form_on_corpus():
    """Every closed set of the problems, and 1,000 random subsets of each
    algebra, which on luk:6 x luk:6 spans two chunks of rows."""
    rng = random.Random(0)
    for alg in CORPUS:
        sets = [s for problem in problems(alg) for s in enumerate_closed(alg, *problem)]
        sets += [{x for x in range(alg.size) if rng.random() < 0.5} for _ in range(1000)]
        for got, want in split_cases(alg, sets):
            assert got == want, alg.name


def test_splits_matches_per_set_form_on_faults():
    """Every subset of every single-entry fault of the algebras in SMALL
    of at most four elements."""
    for alg in [a for a in SMALL if a.size <= 4]:
        every = [set(c) for r in range(alg.size + 1) for c in combinations(range(alg.size), r)]
        for fault, bad in single_faults(alg):
            for got, want in split_cases(bad, every):
                assert got == want, fault


def lemma_oracle(alg, subset_size):
    space = zariski_sets(alg, bound=64)
    # the DFS misses lattice filters where meet is not a partial order
    scan = oracles.enumerate_closed if alg.partial_order is not None else oracles.closed_sets
    lat = scan(alg, range(alg.size), True, alg.one, ["meet"])
    lat_primes = [f for f in lat if alg.zero not in f and oracles.is_prime_filter(alg, f)]
    return oracles.verify_dm_lemma(alg, space, lat_primes, subset_size)


def test_dm_lemma_matches_frozenset_oracle():
    for alg in CORPUS + KRIPKE:
        k = 2 if alg.size <= 12 else 1
        assert verify_dm_lemma(alg, subset_size=k, bound=64) == lemma_oracle(alg, k), alg.name


def test_dm_lemma_violations_match_oracle_on_faults():
    """Single-entry faults give failing reports; their violation lists
    (order and witnesses) are the oracle's."""
    failing = 0
    for alg in [a for a in SMALL if a.size <= 4]:
        for fault, faulty in single_faults(alg):
            report = verify_dm_lemma(faulty, bound=64)
            assert report == lemma_oracle(faulty, 2), fault
            failing += not report.passed
    assert failing


def single_faults(alg):
    """Every algebra that differs from `alg` in one join, meet or star entry."""
    for name in ("join", "meet", "star"):
        for a in range(alg.size):
            for b in range(alg.size):
                for v in range(alg.size):
                    if v != alg.tables[name][a][b]:
                        yield (name, a, b, v), with_entry(alg, name, (a, b), v)


def with_table(alg, name, table):
    tables = {op: alg.np_table(op) for op in alg.signature.names()}
    tables[name] = table
    return FiniteAlgebra(alg.name + "#fault", alg.size, alg.signature, tables, alg.labels)


def with_entry(alg, name, pos, value):
    table = alg.np_table(name).copy()
    table[pos] = value
    return with_table(alg, name, table)


def gate_failing(data):
    """One of SMALL with a table that fails the principal-set gate."""
    alg = data.draw(st.sampled_from(SMALL))
    kind = data.draw(st.sampled_from(["non-integral star", "star = join", "corrupted meet"]))
    n = alg.size
    if kind == "star = join":
        bad = with_table(alg, "star", alg.np_table("join"))
    elif kind == "non-integral star":
        a = data.draw(st.sampled_from([x for x in range(n) if x != alg.one]))
        bad = with_entry(alg, "star", (a, data.draw(st.integers(0, n - 1))), alg.one)
    else:  # the diagonal, or the reverse of a strict pair, so leq stops being an order
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b and alg.leq(a, b)]
        a, b = data.draw(st.sampled_from(pairs))
        if data.draw(st.booleans()):
            bad = with_entry(alg, "meet", (a, a), b)
        else:
            bad = with_entry(alg, "meet", (b, a), b)
        assert bad.partial_order is None
    return bad


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gate_failing_tables_match_subset_scan(data):
    bad = gate_failing(data)
    n = bad.size
    filters = (range(n), True, bad.one, ["star"], [])
    assert principal_closed(bad, *filters) is None
    for problem in problems(bad):
        assert enumerate_closed(bad, *problem) == oracles.closed_sets(bad, *problem)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generate_closed_matches_leq_walk_on_gate_failing_tables(data):
    """The least closed set over every seed of at most one element and
    one larger seed, in the whole universe and in all but element 0, with
    `neg` as a unary op where there is one."""
    bad = gate_failing(data)
    n = bad.size
    unary = [u for u in ("neg",) if u in bad.signature]
    for _, up, const, binary, _ in problems(bad):
        for universe in (None, range(1, n)):
            for seed in [()] + [(x,) for x in range(n)] + [tuple(range(0, n, 3))]:
                for ops in ((binary, []), (binary, unary)):
                    args = (bad, seed, up, const, *ops, universe)
                    assert generate_closed(*args) == oracles.generate_closed(*args), args[1:]


def test_next_closure_matches_dfs_on_partial_orders(monkeypatch):
    monkeypatch.setattr(algebra, "principal_closed", lambda *args: None)  # always fall back
    for alg in CORPUS + KRIPKE:
        for problem in problems(alg):
            assert enumerate_closed(alg, *problem) == oracles.enumerate_closed(alg, *problem)
        for reduct, nr, outside in nr_problems(alg):
            ops = kernel_ops(reduct, outside)
            for universe in (nr, range(reduct.size)):
                problem = (universe, False, reduct.zero, *ops)
                assert enumerate_closed(reduct, *problem) == oracles.enumerate_closed(
                    reduct, *problem
                ), (alg.name, outside)


def test_enumerate_closed_matches_subset_scan_on_faults():
    """Every single-entry fault, on the principal path where the gate
    passes and on NextClosure where it fails, which includes every fault
    on which the DFS misses a set."""
    missed = 0
    for alg in SMALL:
        for fault, bad in single_faults(alg):
            for problem in problems(bad):
                scan = oracles.closed_sets(bad, *problem)
                assert enumerate_closed(bad, *problem) == scan, (alg.name, fault, problem)
                missed += oracles.enumerate_closed(bad, *problem) != scan
    assert missed


def test_next_closure_finds_filters_the_dfs_missed():
    """godel:3 with meet[2][1] = 2 relates 1 and 2 both ways: the DFS
    found no star filter."""
    bad = with_entry(CHAINS[0], "meet", (2, 1), 2)
    problem = (range(3), True, bad.one, ["star"])
    assert enumerate_closed(bad, *problem) == [frozenset({1, 2}), frozenset({0, 1, 2})]
    assert oracles.enumerate_closed(bad, *problem) == []


def test_benchmark_problems_take_the_principal_path():
    """The filter, lattice-filter, ideal and Nr_J kernel-ideal problems of
    every corpus and Kripke algebra pass the gate, so none of them runs
    NextClosure."""
    for alg in CORPUS + KRIPKE:
        for problem in problems(alg):
            assert principal_closed(alg, *problem) is not None, (alg.name, problem)
        for reduct, nr, outside in nr_problems(alg):
            ops = kernel_ops(reduct, outside)
            for universe in (nr, range(reduct.size)):
                problem = (universe, False, reduct.zero, *ops)
                assert principal_closed(reduct, *problem) is not None, (alg.name, outside)


def test_zariski_sets_reach_ba_fr3():
    """BA Fr_3 has 256 elements: the spectra and the D_M lemma over all
    32,896 subsets of at most two elements stay in seconds and memory."""
    fr3 = free_algebra(boolean_variety(), 3).algebra
    start = time.perf_counter()
    space = zariski_sets(fr3, bound=256)
    elapsed = time.perf_counter() - start
    assert len(space.max_points) == len(space.prime_points) == 8
    assert elapsed < 10, elapsed
    assert verify_dm_lemma(fr3, space=space, bound=256).passed
