"""Dual sheaves: zero-dimensional parts, stalks, sections, eta, regularity."""

from collections import Counter
from itertools import combinations

import numpy
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
from reslat.amalgam import all_congruences, enumerate_ideals, ideal_generate, is_simple
from reslat.budgets import Budget
from reslat.corpus import _coordinate_closure_product, corpus_algebras
from reslat.errors import ResourceError
from reslat.kripke import KripkeSystem, random_kripke, set_algebra
from reslat.sheaf import (
    DualSheaf,
    _eta,
    dual_sheaf,
    eta_check,
    regular_ideals_open_sets,
    regularity,
    report,
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
            assert canonical(projection) == oracles.stalk_congruence(sheaf.alg, x), alg.name
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


@pytest.mark.parametrize("alg", corpus_algebras(), ids=lambda a: a.name)
def test_section_algebra_matches_oracle_on_corpus(alg):
    """On each corpus algebra eta is an isomorphism onto Gamma, the
    oracle's algebra of the continuous sections, and `eta_check` answers
    as the three-step check of `eta_oracle`, details included (the corpus
    family of `test_eta_check_is_the_three_step_check`)."""
    assert eta_matches_oracle(alg)


def test_section_algebra_without_points_matches_oracle():
    """The one-element algebra has no prime ideal, so its sheaf has no
    point, and one section: the empty tuple, the one element of the empty
    product.  Gamma is the one-element algebra and eta an isomorphism."""
    sheaf = dual_sheaf(trivial())
    assert sheaf.points == [] and sections(sheaf) == [()]
    gamma, index = oracles.section_algebra(sheaf, [()])
    assert index == {(): 0} and oracles.table_lists(gamma) == oracles.table_lists(sheaf.alg)
    want = (True, {"sections": 1, "mapping": [0]})
    assert eta_check(trivial(), sheaf) == eta_oracle(sheaf, [()]) == want


# ---- the projection matrix against the per-point forms ------------------------


def trivial():
    ops = {"join": [[0]], "meet": [[0]], "star": [[0]], "imp": [[0]], "zero": 0, "one": 0}
    return FiniteAlgebra("trivial", 1, Signature(CORE_OPS), ops)


def sheaf_family(family):
    """The corpus, the Kripke set algebras of tests/test_principal.py, and
    the coordinate-closure product of criterion 8 with the one-element
    algebra."""
    if family == "kripke":
        from test_principal import KRIPKE

        return KRIPKE
    if family == "corpus":
        return corpus_algebras()
    return [_coordinate_closure_product([luk(2), ba4()]), trivial()]


def kernel_ideals(sheaf):
    reduct = sheaf.alg
    return enumerate_ideals(reduct, reduct.extra_operator_names(), range(reduct.size))


def eta_oracle(sheaf, secs):
    """eta in three steps: injective, onto the sections, and a
    homomorphism into Gamma as the tuple-lookup loop builds it."""
    n = sheaf.alg.size
    images = [sheaf.section_of(a) for a in range(n)]
    dup = [(a, b) for a, b in combinations(range(n), 2) if images[a] == images[b]]
    if dup:
        return False, {"injective": False, "witness": dup[0]}
    if set(images) != set(secs):
        missing = sorted(set(secs) - set(images))
        return False, {"surjective": False, "witness": missing[0] if missing else None}
    gamma, index = oracles.section_algebra(sheaf, secs)
    mapping = [index[s] for s in images]
    if oracles.first_hom_failure(sheaf.alg, gamma, mapping) is not None:
        return False, {"homomorphism": False}
    return True, {"sections": len(secs), "mapping": mapping}


def eta_matches_oracle(alg):
    """`eta_check` on alg's dual sheaf against `eta_oracle`, and `_eta`
    with one more section, which is no sigma_a, when eta is a bijection:
    no sheaf here has such a section, so this reaches the surjectivity
    check.  Returns eta's verdict."""
    sheaf = dual_sheaf(alg)
    secs = sections(sheaf)
    got = eta_check(alg, sheaf)
    assert got == eta_oracle(sheaf, secs), alg.name
    if got[0] and sheaf.points:
        more = secs + [(alg.size,) * len(sheaf.points)]
        want = (False, {"surjective": False, "witness": more[-1]})
        assert _eta(sheaf, more) == eta_oracle(sheaf, more) == want, alg.name
    return got[0]


@pytest.mark.parametrize("family", ["kripke", "faulty"])
def test_eta_check_is_the_three_step_check(family):
    """On the Kripke set algebras and the single faults of
    tests/test_order.py, eta's two set checks answer as the three steps
    did, details included: Gamma is never left by an op and a |-> sigma_a
    always preserves every op once eta is a bijection.  That rests on each
    projection row being a congruence of the reduct, which
    `test_congruence_clause_is_the_maximal_congruence_scan` pins against
    the union-find closure.  The corpus and the one-element algebra are
    checked by the two tests above."""
    from test_order import FAMILIES

    verdicts = Counter(eta_matches_oracle(alg) for alg in FAMILIES[family])
    assert verdicts[True] and (verdicts[False] or family != "faulty"), verdicts


@pytest.mark.parametrize("family", ["corpus", "kripke", "faulty"])
def test_report_reads_the_stalk_sizes_off_the_projections(family):
    from test_order import FAMILIES

    for alg in FAMILIES[family] + [trivial()]:
        got = report(alg, with_eta=False, with_regularity=False)["stalk_sizes"]
        assert got == [q.size for q in dual_sheaf(alg).stalks], alg.name


@pytest.mark.parametrize("family", ["corpus", "kripke", "other"])
def test_pruned_section_search_matches_the_search_over_every_point(family):
    for alg in sheaf_family(family):
        sheaf = dual_sheaf(alg)
        assert sections(sheaf) == oracles.sections(sheaf), alg.name


@pytest.mark.parametrize("family", ["corpus", "kripke", "other"])
def test_regular_ideals_open_sets_matches_frozenset_form(family):
    """The whole dict, key order included."""
    for alg in sheaf_family(family):
        sheaf = dual_sheaf(alg)
        want = oracles.regular_ideals_open_sets(sheaf, kernel_ideals(sheaf))
        assert list(regular_ideals_open_sets(alg, sheaf).items()) == list(want.items()), alg.name


def test_section_search_budget_counts_the_nodes_it_visits():
    """luk:4 x godel:3 has five points, two of them covered by the others'
    neighbourhoods: the search visits fewer nodes than the one over every
    point, and the budget error fires at the node after the budget."""
    sheaf = dual_sheaf(product([core_reduct(luk(4)), core_reduct(godel(3))]))

    def nodes(search):
        """The least budget the search runs under."""
        for budget in range(1, 1000):
            try:
                search(sheaf, budget=Budget(sections=budget))
            except ResourceError:
                continue
            return budget

    pruned = nodes(sections)
    assert pruned < nodes(oracles.sections)
    message = "section search of %d nodes over budget %d$" % (pruned, pruned - 1)
    with pytest.raises(ResourceError, match=message):
        sections(sheaf, budget=Budget(sections=pruned - 1))


def perturbed(sheaf):
    """Copies of the sheaf with one projection entry moved to another
    class, and, where it has two points, with the second point and its
    row made copies of the first."""
    proj = sheaf.projections
    for x, a in numpy.ndindex(*proj.shape):
        for v in range(proj[x].max() + 1):
            if v != proj[x, a]:
                rows = proj.copy()
                rows[x, a] = v
                yield DualSheaf(sheaf.alg, sheaf.zd, sheaf.points, rows)
    if len(sheaf.points) > 1:
        rows = proj.copy()
        rows[1] = rows[0]
        yield DualSheaf(sheaf.alg, sheaf.zd, [sheaf.points[0]] * 2 + sheaf.points[2:], rows)


def test_regular_ideals_open_sets_failures_match_frozenset_form():
    """Perturbed sheaves of the corpus algebras of at most nine elements
    reach every failure reason, each with the frozenset form's dict.  The
    frozenset form's fourth check, an open whose J is not a regular ideal
    U maps back to it, never fails after the other three pass: U is then
    a bijection onto the opens that J undoes."""
    reasons = Counter()
    for alg in [a for a in corpus_algebras() if a.size <= 9]:
        sheaf = dual_sheaf(alg)
        ideals = kernel_ideals(sheaf)
        for bent in perturbed(sheaf):
            got = regular_ideals_open_sets(alg, bent)
            assert list(got.items()) == list(oracles.regular_ideals_open_sets(bent, ideals).items())
            reasons[got.get("reason")] += 1
    assert set(reasons) == {None, "image mismatch", "not injective", "not inverse"}, reasons


def test_projections_are_one_read_only_matrix_and_stalks_wait_for_a_read(monkeypatch):
    """`dual_sheaf` builds no quotient algebra, nor do eta, the regular
    ideals or a report without regularity; the first read of `stalks`
    builds one per point, named and labelled as the point's quotient."""
    from reslat import algebra

    built, restrict = [], algebra.FiniteAlgebra.restrict

    def counted(self, name, *args, **kw):
        built.append(name)
        return restrict(self, name, *args, **kw)

    monkeypatch.setattr(algebra.FiniteAlgebra, "restrict", counted)
    sheaf = dual_sheaf(ba4())
    assert sheaf.projections.dtype == numpy.int32 and not sheaf.projections.flags.writeable
    assert sheaf.projections.shape == (2, 4) and built == [ba4().name + "#blo"]
    eta_check(ba4(), sheaf)
    regular_ideals_open_sets(ba4(), sheaf)
    report(ba4(), with_regularity=False)
    assert built.count("stalk") == 0
    labels = [["[(0,0)]", "[(1,0)]"], ["[(0,0)]", "[(0,1)]"]]
    assert [list(q.labels) for q in sheaf.stalks] == labels and built.count("stalk") == 2
