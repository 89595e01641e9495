"""Dual sheaves: zero-dimensional parts, stalks, sections, eta, regularity."""

from collections import Counter
from itertools import combinations

import pytest

import oracles
from reslat.algebra import (
    CORE_OPS,
    ChainSpec,
    FiniteAlgebra,
    Signature,
    core_reduct,
    iso_check,
    lattice_reduct,
    make_chain,
    product,
)
from reslat.amalgam import all_congruences, enumerate_ideals, ideal_congruence, ideal_generate, is_simple
from reslat.budgets import Budget
from reslat.corpus import _coordinate_closure_product, corpus_algebras
from reslat.errors import DomainError, ResourceError
from reslat.kripke import KripkeSystem, random_kripke, set_algebra
from reslat.sheaf import (
    dual_sheaf,
    eta_check,
    regular_ideals_open_sets,
    regularity,
    report,
    section_algebra,
    sections,
    sheaf_reduct,
    strongly_regular_equiv_check,
    zero_dim,
)


def luk(n):
    return make_chain(ChainSpec("lukasiewicz", n))


def godel(n):
    return make_chain(ChainSpec("godel", n))


def ba4():
    l2 = luk(2)
    return product([l2, l2])


def coordinate_closure_product(algs):
    prod = product(algs)
    strides = []
    n = 1
    for a in reversed(algs):
        strides.insert(0, n)
        n *= a.size
    table = []
    for e in range(prod.size):
        closed = 0
        for i, a in enumerate(algs):
            c = (e // strides[i]) % a.size
            closed += (0 if c == a.zero else a.one) * strides[i]
        table.append(closed)
    sig = Signature(prod.signature.ops + (("c_0", 1),))
    tables = dict(prod.tables)
    tables["c_0"] = table
    return FiniteAlgebra(prod.name + "+cl", prod.size, sig, tables, labels=prod.labels)


# ---- zero dimensional part ---------------------------------------------------


def test_zd_with_no_operators_is_everything():
    alg = godel(4)
    assert zero_dim(alg) == tuple(range(alg.size))


def test_zd_of_kripke_algebra_matches_dimension_sets():
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    full = ksa.algebra
    every = range(full.size)
    extra = full.extra_operator_names()
    ops = [n for n in full.signature.names() if n not in extra or n.startswith("c_")]
    alg = full.restrict(full.name, every, every, ops, full.labels)[0]  # the c_j its only operators
    assert set(zero_dim(alg)) == {x for x in range(alg.size) if not oracles.dimension_set(alg, x)}


def test_zd_of_coordinate_closure_product():
    pc = coordinate_closure_product([ba4(), ba4()])
    assert len(zero_dim(pc)) == 4


def test_corpus_coordinate_closure_product_matches_the_stride_loop():
    """The corpus builds c_0 from `product`'s element order; the loop
    above builds it entry by entry from the strides."""
    for algs in ([luk(2), ba4()], [godel(3), godel(4)], [ba4(), ba4()], [luk(2), luk(4), luk(3)]):
        got, want = _coordinate_closure_product(algs), coordinate_closure_product(algs)
        assert (got.size, got.signature) == (want.size, want.signature)
        assert got.tables["c_0"].tolist() == want.tables["c_0"].tolist()


def test_zd_is_every_fixed_point_even_when_not_closed():
    """An operator fixing 0, 1/3 and 1 of luk:4: Zd is those three, though
    imp(1/3, 0) = 2/3 lies outside, and its elements are ints."""
    alg = luk(4)
    ops = {name: alg.tables[name] for name in alg.signature.names()} | {"f": [0, 1, 3, 3]}
    with_f = FiniteAlgebra("luk:4+f", 4, Signature(alg.signature.ops + (("f", 1),)), ops)
    zd = zero_dim(with_f)
    assert zd == (0, 1, 3) and all(type(v) is int for v in zd)
    assert with_f.imp(1, 0) not in zd


# ---- dual sheaves --------------------------------------------------------------


def test_dual_sheaf_of_4ba():
    alg = ba4()
    sheaf = dual_sheaf(alg)
    assert len(sheaf.points) == 2
    assert [q.size for q in sheaf.stalks] == [2, 2]
    assert len(sections(sheaf)) == 4


def test_dual_sheaf_of_2ba():
    alg = luk(2)
    sheaf = dual_sheaf(alg)
    assert len(sheaf.points) == 1
    assert sheaf.stalks[0].size == 2


def test_sections_are_sections():
    alg = ba4()
    sheaf = dual_sheaf(alg)
    for a in range(alg.size):
        sigma = sheaf.section_of(a)
        assert len(sigma) == len(sheaf.points)
        for i, v in enumerate(sigma):
            assert 0 <= v < sheaf.stalks[i].size


def test_eta_iso_on_corpus_samples():
    for alg in (luk(2), luk(3), luk(6), godel(3), godel(6), ba4()):
        ok, details = eta_check(alg)
        assert ok, (alg.name, details)


def test_eta_on_mixed_product():
    p = product([core_reduct(luk(3)), core_reduct(godel(4))])
    ok, _ = eta_check(p)
    assert ok


def test_eta_on_kripke_set_algebra():
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    ok, _ = eta_check(ksa.algebra)
    assert ok


def test_stalks_of_coordinate_product_are_factors():
    l2 = luk(2)
    b4 = ba4()
    pc = coordinate_closure_product([l2, b4])
    sheaf = dual_sheaf(pc)
    assert sorted(q.size for q in sheaf.stalks) == [2, 4]
    for q in sheaf.stalks:
        target = l2 if q.size == 2 else b4
        assert iso_check(lattice_reduct(q), lattice_reduct(target)) is not None
    ok, _ = eta_check(pc, sheaf)
    assert ok


# ---- regularity ------------------------------------------------------------------


def test_simple_algebra_strongly_regular():
    # luk:3 is simple in its full signature; one-point base, stalk = itself
    reg = regularity(luk(3))
    assert reg["strongly_regular"] and reg["regular"]


def test_regularity_of_4ba():
    reg = regularity(ba4())
    assert reg == {
        "regular": True,
        "strongly_regular": True,
        "congruence_strongly_regular": True,
    }


def test_strongly_regular_implies_regular_on_samples():
    for alg in (luk(2), luk(3), ba4(), godel(3), godel(5)):
        reg = regularity(alg)
        if reg["strongly_regular"]:
            assert reg["regular"]


def test_equiv_check_on_boolean():
    rep = strongly_regular_equiv_check(ba4())
    assert rep["equivalent"]
    assert rep["strongly_regular"] and rep["stalks_semisimple"]


def test_equiv_check_skips_chains():
    rep = strongly_regular_equiv_check(godel(4))
    assert rep == {"skipped": "not relatively complemented"}


def test_equiv_check_on_simple_kripke():
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 1)
    ksa = set_algebra(system, with_diagonals=True)
    rep = strongly_regular_equiv_check(ksa.algebra)
    if "skipped" not in rep:
        assert rep["equivalent"]


def canonical(projection):
    """A projection as a canonical tuple: each element to the least member
    of its class."""
    first = {}
    return tuple(first.setdefault(c, x) for x, c in enumerate(projection))


@pytest.mark.parametrize("family", ["corpus", "kripke", "faulty"])
def test_congruence_clause_is_the_maximal_congruence_scan(family):
    """On the corpus algebras, Kripke set algebras and single faults of
    both (tests/test_order.py), each stalk's projection is Co(x), and
    reading the stalks for simplicity answers as the scan for maximal
    congruences in the reduct's congruence lattice did.  On 20 faults
    `regularity` refuses the ideal enumeration before the clause; there
    the clause's stalk test is read directly."""
    from test_order import FAMILIES

    verdicts, lattices = Counter(), {}
    for alg in FAMILIES[family]:
        sheaf = dual_sheaf(alg)
        for x, projection in zip(sheaf.points, sheaf.projections):
            assert canonical(projection) == ideal_congruence(sheaf.alg, x), alg.name
        try:
            got = regularity(alg, sheaf)["congruence_strongly_regular"]
        except ResourceError:
            got = all(map(is_simple, sheaf.stalks))
            verdicts["gated"] += 1
        # equal tables, equal lattices: the corpus products of two chains of
        # the same lengths share their sheaf reduct, as do the star faults
        tables = tuple(
            (name, t if type(t) is int else (t.shape, t.dtype.str, t.tobytes()))
            for name, t in sorted(sheaf.alg.tables.items())
        )
        if tables not in lattices:
            lattices[tables] = all_congruences(sheaf.alg, budget=Budget(spectrum=64))
        assert got == oracles.congruence_strongly_regular(sheaf, lattices[tables]), alg.name
        verdicts[got] += 1
    assert verdicts[True] and (verdicts[False] or family == "kripke")
    assert verdicts["gated"] == (20 if family == "faulty" else 0)


def test_equiv_check_runs_on_every_family_by_default(monkeypatch):
    """Under the default budget the check answers, or skips, on every
    algebra of tests/test_order.py's families."""
    from test_order import FAMILIES

    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    for alg in (alg for family in FAMILIES.values() for alg in family):
        assert isinstance(strongly_regular_equiv_check(alg), dict), alg.name


def test_equiv_check_on_the_32_element_kripke_algebra(monkeypatch):
    """The Boolean set algebra of `random_kripke(5, 2, 2, 2)` has 32
    elements, over the default gate of the congruence lattice, which the
    check does not list."""
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    alg = random_kripke(5, 2, 2, 2)[1].algebra
    assert alg.size == 32
    rep = strongly_regular_equiv_check(alg)
    assert rep["equivalent"], rep


# ---- regular ideals <-> opens --------------------------------------------------------


def test_regular_ideals_open_sets_small():
    rep = regular_ideals_open_sets(luk(2))
    assert rep["isomorphism"] and rep["regular_ideals"] == 2 and rep["opens"] == 2


def test_regular_ideals_open_sets_4ba():
    rep = regular_ideals_open_sets(ba4())
    assert rep["isomorphism"] and rep["regular_ideals"] == 4


def test_regular_ideals_on_chain():
    for alg in (godel(4), luk(4)):
        rep = regular_ideals_open_sets(alg)
        assert rep["isomorphism"], (alg.name, rep)


def all_zero(n):
    """join, meet, star and imp all 0: only 0 lies below anything, so
    every set of elements holding 0 is a kernel ideal."""
    zeros = [[0] * n for _ in range(n)]
    tables = {"join": zeros, "meet": zeros, "star": zeros, "imp": zeros, "zero": 0, "one": n - 1}
    return FiniteAlgebra("zeros", n, Signature(CORE_OPS), tables)


def test_kernel_ideal_next_closure_is_gated_by_the_bound():
    """A universe is listed at any size on the principal path; its
    NextClosure fallback runs up to the bound (default the spectrum
    budget) and is refused beyond it."""
    alg = all_zero(9)
    assert len(enumerate_ideals(alg, (), range(9))) == 256
    with pytest.raises(ResourceError, match=r"\(size 9\) over bound 8"):
        enumerate_ideals(alg, (), range(9), bound=8)
    with pytest.raises(ResourceError, match=r"\(size 13\) over bound 12"):
        enumerate_ideals(all_zero(13), (), range(13), budget=Budget())
    big = product([core_reduct(luk(6))] * 2)  # 36 elements, every ideal principal
    assert len(enumerate_ideals(big, (), range(36), budget=Budget())) == 36


def test_regularity_scan_is_gated_by_the_closure_budget():
    """godel:5 has 5 ideals, 4 proper: 4 * 5^2 = 100 pairs.  luk:6 x luk:6
    has 36, 35 proper: 45,360 pairs, the most of any corpus algebra, far
    inside the default budget."""
    assert regularity(godel(5), budget=Budget(closure=100)) == regularity(godel(5))
    with pytest.raises(ResourceError, match="100 ideal pairs over closure budget 99"):
        regularity(godel(5), budget=Budget(closure=99))
    big = product([core_reduct(luk(6))] * 2)
    with pytest.raises(ResourceError, match="45360 ideal pairs over closure budget 45359"):
        regularity(big, budget=Budget(closure=45359))


def test_regular_ideals_on_kripke():
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    ksa = set_algebra(system, with_diagonals=True)
    rep = regular_ideals_open_sets(ksa.algebra)
    assert rep["isomorphism"]


def test_kernel_ideal_generation_respects_operators():
    pc = coordinate_closure_product([luk(2), ba4()])
    reduct = sheaf_reduct(pc)
    atom = next(
        x for x in range(pc.size) if x != pc.zero and pc.apply("c_0", x) != x
    )
    ideal = ideal_generate(reduct, [atom], ["c_0"])
    assert pc.apply("c_0", atom) in ideal


def brute_force_kernel_ideals(alg, sub, operators):
    """Oracle: every subset of `sub` that holds 0 and is closed downward,
    under oplus (else join) and under the operators, inside `sub`."""
    sub = sorted(sub)
    add = alg.tables["oplus"] if "oplus" in alg.signature else alg.tables["join"]
    unary = [alg.tables[f] for f in operators]
    out = []
    for r in range(len(sub) + 1):
        for members in combinations(sub, r):
            s = set(members)
            images = (
                [add[a][b] for a in s for b in s]
                + [t[a] for t in unary for a in s]
                + [b for a in s for b in sub if alg.leq(b, a)]
            )
            if alg.zero in s and all(v in s for v in images if v in sub):
                out.append(frozenset(s))
    return sorted(out, key=lambda s: sum(1 << i for i in s))


def test_kernel_ideals_match_brute_force():
    # a proper subuniverse carrying an operator: the c_0-fixed points
    pc = sheaf_reduct(coordinate_closure_product([luk(3), ba4()]))
    zd = zero_dim(pc)
    assert 0 < len(zd) < pc.size
    # and a subset the operations leave, where closure is only checked inside
    lower = range(pc.size // 2)
    for sub in (zd, lower):
        assert enumerate_ideals(pc, ["c_0"], sub) == brute_force_kernel_ideals(pc, sub, ["c_0"])
    # generation: the least kernel ideal over each seed
    small = sheaf_reduct(coordinate_closure_product([luk(2), luk(3)]))
    for alg, ops in ((luk(3), []), (godel(4), []), (ba4(), []), (small, ["c_0"])):
        every = brute_force_kernel_ideals(alg, range(alg.size), ops)
        for r in range(3):
            for seed in combinations(range(alg.size), r):
                least = frozenset.intersection(*[s for s in every if s >= set(seed)])
                assert ideal_generate(alg, seed, ops) == least, (alg.name, seed)


def test_report_shape():
    rep = report(ba4())
    assert rep["eta_isomorphism"] is True
    assert rep["section_count"] == 4
    assert len(rep["base_points"]) == 2
    assert rep["stalk_sizes"] == [2, 2]


def gamma_outcome(build, sheaf, secs):
    """Tables and index of Gamma over `secs`, or the DomainError's message."""
    try:
        gamma, index = build(sheaf, secs)
    except DomainError as exc:
        return str(exc)
    return gamma.name, gamma.size, oracles.table_lists(gamma), index


@pytest.mark.parametrize("alg", corpus_algebras(), ids=lambda a: a.name)
def test_section_algebra_matches_oracle_on_corpus(alg):
    """Gamma on packed section keys against the tuple-lookup loop: on all
    sections, and on sorted parts of them that some op leaves, where the
    first such op in signature order names the error."""
    sheaf = dual_sheaf(alg)
    secs = sections(sheaf)
    errors = 0
    for part in (secs, secs[::2], secs[1:], secs[:-1]):
        got = gamma_outcome(section_algebra, sheaf, part)
        assert got == gamma_outcome(oracles.section_algebra, sheaf, part)
        errors += type(got) is str
    assert type(gamma_outcome(section_algebra, sheaf, secs)) is tuple
    assert errors or len(secs) == 1


def test_section_algebra_without_points_matches_oracle():
    """The one-element algebra has no prime ideal, so its sheaf has no
    point, and one section: the empty tuple, the one element of the empty
    product.  Gamma is the one-element algebra, and eta an isomorphism."""
    ops = {"join": [[0]], "meet": [[0]], "star": [[0]], "imp": [[0]], "zero": 0, "one": 0}
    alg = FiniteAlgebra("trivial", 1, Signature(CORE_OPS), ops)
    sheaf = dual_sheaf(alg)
    assert sheaf.points == [] and sections(sheaf) == [()]
    got = gamma_outcome(section_algebra, sheaf, [()])
    want = ("Gamma(%s)" % sheaf.alg.name, 1, {"join": [[0]], "meet": [[0]], "zero": 0, "one": 0}, {(): 0})
    assert got == gamma_outcome(oracles.section_algebra, sheaf, [()]) == want
    assert gamma_outcome(section_algebra, sheaf, []) == "sections not closed under constant 'zero'"
    assert eta_check(alg, sheaf) == (True, {"sections": 1, "mapping": [0]})
