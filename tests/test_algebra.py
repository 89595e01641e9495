"""Chains, t-norms, residua, axiom suites and structural operations."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product as iproduct

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reslat.algebra import (
    ALGEBRA_CLASSES,
    CHAIN_KINDS,
    CORE_OPS,
    ChainSpec,
    FiniteAlgebra,
    Signature,
    _AXIOMS,
    _axiom_failures,
    check_class_axioms,
    complement,
    core_reduct,
    first_hom_failure,
    homomorphisms,
    is_homomorphism,
    iso_check,
    load_algebra,
    make_chain,
    parse_builtin,
    product,
    residuum_closed_form,
    subalgebra_generate,
    tnorm_eval,
)
from reslat.errors import DomainError, InvalidSpecError, ResourceError, SignatureError


def luk(n):
    return make_chain(ChainSpec("lukasiewicz", n))


def godel(n):
    return make_chain(ChainSpec("godel", n))


# ---- chains and t-norms ---------------------------------------------------


def test_luk2_is_boolean():
    # on {0,1} all three t-norms coincide with meet
    l2 = luk(2)
    assert l2.tables["star"].tolist() == l2.tables["meet"].tolist()
    assert check_class_axioms(l2, "boolean").passed


def test_luk3_star_half_half_is_zero():
    assert luk(3).star(1, 1) == 0  # max(0, 1/2 + 1/2 - 1) = 0


def test_godel3_star_half_half_is_half():
    assert godel(3).star(1, 1) == 1  # min(1/2, 1/2)


def test_chain_size_must_be_at_least_two():
    with pytest.raises(InvalidSpecError):
        ChainSpec("lukasiewicz", 1)


def test_chain_labels_are_exact_rationals():
    assert luk(5).labels == ("0", "1/4", "1/2", "3/4", "1")


def test_tnorm_values():
    assert tnorm_eval("lukasiewicz", Fraction(7, 10), Fraction(6, 10)) == Fraction(3, 10)
    assert tnorm_eval("godel", Fraction(7, 10), Fraction(6, 10)) == Fraction(6, 10)
    assert tnorm_eval("product", Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)


def test_tnorm_unit_axioms():
    for kind in ("lukasiewicz", "godel", "product"):
        for x in (Fraction(0), Fraction(3, 7), Fraction(1)):
            assert tnorm_eval(kind, Fraction(1), x) == x
            assert tnorm_eval(kind, Fraction(0), x) == 0


def test_tnorm_domain_error():
    with pytest.raises(DomainError):
        tnorm_eval("lukasiewicz", Fraction(3, 2), Fraction(1, 2))


def test_tnorm_monotone_on_grids():
    # non-decreasing in both arguments, exhaustively on a grid
    pts = [Fraction(i, 8) for i in range(9)]
    for kind in ("lukasiewicz", "godel", "product"):
        for x1 in pts:
            for x2 in pts:
                if x1 > x2:
                    continue
                for y in pts:
                    assert tnorm_eval(kind, x1, y) <= tnorm_eval(kind, x2, y)


# ---- residua ----------------------------------------------------------------


def brute_force_residuum(kind, x, y, steps=100):
    """Independent oracle: max z on the 1/steps grid with x*z <= y."""
    best = None
    for i in range(steps + 1):
        z = Fraction(i, steps)
        if tnorm_eval(kind, x, z) <= y:
            best = z
    return best


def test_residuum_luk_derived_example():
    # brute force over the 1/100 grid first, then the formula
    assert brute_force_residuum("lukasiewicz", Fraction(7, 10), Fraction(5, 10)) == Fraction(8, 10)
    assert residuum_closed_form("lukasiewicz", Fraction(7, 10), Fraction(5, 10)) == Fraction(8, 10)


def test_residuum_godel_derived_example():
    assert brute_force_residuum("godel", Fraction(7, 10), Fraction(5, 10)) == Fraction(5, 10)
    assert residuum_closed_form("godel", Fraction(7, 10), Fraction(5, 10)) == Fraction(5, 10)


def test_residuum_x_leq_y_gives_one():
    for kind in ("lukasiewicz", "godel"):
        assert residuum_closed_form(kind, Fraction(1, 3), Fraction(1, 2)) == 1


def test_residuum_oracle_on_chains():
    l3 = luk(3)
    assert oracles.residuum_oracle(l3.tables["star"], 1, 0) == 1  # 1/2 * 1/2 = 0
    g3 = godel(3)
    assert oracles.residuum_oracle(g3.tables["star"], 2, 1) == 1  # x=1, y=1/2 -> 1/2
    for alg in (l3, g3):
        for y in range(alg.size):
            assert oracles.residuum_oracle(alg.tables["star"], 0, y) == alg.size - 1


def test_residuum_oracle_matches_imp_tables():
    for make in (luk, godel):
        for n in range(2, 7):
            alg = make(n)
            for x in range(n):
                for y in range(n):
                    assert oracles.residuum_oracle(alg.tables["star"], x, y) == alg.imp(x, y)


def test_adjunction_on_all_chains():
    for make in (luk, godel):
        for n in range(2, 6):
            alg = make(n)
            for x, y, z in iproduct(range(n), repeat=3):
                assert alg.leq(z, alg.imp(x, y)) == alg.leq(alg.star(x, z), y)


def test_closed_form_equals_oracle_on_shared_grids():
    # the grid-equivalence invariant at small scale; the acceptance suite
    # goes to 64
    for k in range(2, 17):
        for kind in ("lukasiewicz", "godel"):
            chain = make_chain(ChainSpec(kind, k + 1))
            for i in range(k + 1):
                for j in range(k + 1):
                    z = oracles.residuum_oracle(chain.tables["star"], i, j)
                    assert residuum_closed_form(
                        kind, Fraction(i, k), Fraction(j, k)
                    ) == Fraction(z, k)


# sha256 over the to_json() of make_chain for both kinds at sizes 2..200 and
# 1024, as _chain_digest reads it, taken when make_chain still wrote its
# tables with formulas of its own
CHAIN_DIGEST = "2300d2789a1358c34953b44c4723bea198eaa90227a476fe25b65d98437f9649"


def _chain_digest(specs):
    h = hashlib.sha256()
    for spec in specs:
        data = make_chain(spec).to_json()
        ops = data.pop("ops")
        h.update(json.dumps(data, sort_keys=True).encode())
        for name in sorted(ops):
            h.update(name.encode())
            h.update(numpy.asarray(ops[name], dtype="<i8").tobytes())
    return h.hexdigest()


def test_make_chain_tables_are_unchanged():
    sizes = [*range(2, 201), 1024]
    assert _chain_digest(ChainSpec(kind, n) for kind in CHAIN_KINDS for n in sizes) == CHAIN_DIGEST


def test_product_tnorm_has_no_grid_closed_form():
    # no nontrivial finite grid is closed under x*y, so only the oracle
    # route supports the product t-norm
    with pytest.raises(DomainError):
        residuum_closed_form("product", Fraction(1, 2), Fraction(1, 4))


# ---- axiom suites ------------------------------------------------------------


def test_luk_chains_pass_mv_and_bl():
    for n in range(2, 7):
        alg = luk(n)
        assert check_class_axioms(alg, "residuated-lattice").passed
        assert check_class_axioms(alg, "bl").passed
        assert check_class_axioms(alg, "mv").passed


def test_godel_fails_mv_with_double_negation_witness():
    g3 = godel(3)
    report = check_class_axioms(g3, "mv")
    assert not report.passed
    witness = report.witness("mv7-double-neg")
    assert witness == (1,)  # a = 1/2: ~~a = 1 != a
    neg = lambda a: g3.imp(a, g3.zero)
    assert neg(neg(1)) == 2


def test_godel_chains_pass_bl():
    for n in range(2, 7):
        assert check_class_axioms(godel(n), "bl").passed


def test_boolean_passes_bl():
    assert check_class_axioms(luk(2), "bl").passed


def test_hajek_mv_identity_on_mv_passing_algebras():
    # x u y = (x -> y) -> y whenever the mv suite passes
    for n in range(2, 7):
        alg = luk(n)
        assert check_class_axioms(alg, "mv").passed
        for x in range(n):
            for y in range(n):
                assert alg.join(x, y) == alg.imp(alg.imp(x, y), y)


def test_missing_table_is_signature_error():
    sig = Signature((("join", 2), ("meet", 2), ("zero", 0), ("one", 0)))
    alg = FiniteAlgebra(
        "lat2", 2, sig,
        {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]], "zero": 0, "one": 1},
    )
    with pytest.raises(SignatureError):
        check_class_axioms(alg, "bl")


def test_axiom_report_invariant():
    report = check_class_axioms(godel(4), "mv")
    assert report.passed == (not report.violations)
    # every violation re-evaluates to a genuine failure
    alg = godel(4)
    neg = lambda a: alg.imp(a, alg.zero)
    w = report.witness("mv7-double-neg")
    assert w is not None and neg(neg(w[0])) != w[0]


# ---- Sg, products, homomorphisms -------------------------------------------


def test_sg_of_constants_on_chain():
    l3 = luk(3)
    assert subalgebra_generate(l3, []) == {0, 2}


def test_sg_of_half_in_luk3():
    assert subalgebra_generate(luk(3), [1]) == {0, 1, 2}


def test_sg_full_universe():
    l4 = luk(4)
    assert subalgebra_generate(l4, range(4)) == set(range(4))


def test_product_of_two_boolean_algebras():
    l2 = luk(2)
    p = product([l2, l2])
    assert p.size == 4
    assert check_class_axioms(p, "boolean").passed


@pytest.mark.parametrize(
    "sizes, name",
    [((3, 4), None), ((4, 2), "p"), ((2, 3, 2), None), ((3, 2, 4), "q")],
)
def test_product_matches_oracle(sizes, name):
    """Mixed-size factors with binary, unary (neg) and constant tables."""
    factors = [luk(n) for n in sizes]
    got, want = product(factors, name=name), oracles.product(factors, name=name)
    assert (got.name, got.size, got.signature, got.labels, oracles.table_lists(got)) == (
        want.name, want.size, want.signature, want.labels, oracles.table_lists(want)
    )
    for opname, arity in got.signature.ops:
        if arity:
            assert (got.np_table(opname) == want.np_table(opname)).all()


def test_make_chain_is_memoized():
    spec = ChainSpec("lukasiewicz", 5)
    assert make_chain(spec) is make_chain(spec)
    assert make_chain(spec) is not make_chain(ChainSpec("godel", 5))


def test_make_chain_checks_the_budget_on_a_cached_chain(monkeypatch):
    spec = ChainSpec("lukasiewicz", 5)
    make_chain(spec)
    monkeypatch.setenv("RESLAT_BUDGET", "chain=4")
    with pytest.raises(ResourceError, match="chain of 5 elements over budget 4"):
        make_chain(spec)


def test_iso_product_vs_free_boolean():
    from reslat.free import boolean_variety, free_algebra

    l2 = luk(2)
    p = product([l2, l2])
    f1 = free_algebra(boolean_variety(), 1)
    mapping = iso_check(p, f1.algebra)
    assert mapping is not None
    assert is_homomorphism(p, f1.algebra, mapping)


def test_homomorphism_search_matches_brute_force():
    # the exhaustive oracle: enumerate all 2^3 maps, filter by all ops
    l3, l2 = luk(3), luk(2)
    found = set(homomorphisms(l3, l2))
    brute = set()
    for img in iproduct(range(2), repeat=3):
        if is_homomorphism(l3, l2, list(img)):
            brute.add(img)
    assert found == brute
    # in particular 0->0, 1/2->0, 1->1 fails oplus and is not a hom
    assert (0, 0, 1) not in brute
    assert not is_homomorphism(l3, l2, [0, 0, 1])


def _corpus_hom_triples():
    """(a, b, map) with map a homomorphism: the identity of every corpus
    algebra, every homomorphism between corpus chains of one signature,
    and the isomorphism Fr_2 -> Fr_1 x Fr_1 of criterion 3."""
    from reslat import corpus
    from reslat.free import boolean_variety, free_product_decomposition_check

    out = [(a, a, list(range(a.size))) for a in corpus.corpus_algebras()]
    chains = corpus.corpus_chains()
    for a, b in iproduct(chains, repeat=2):
        if a.signature == b.signature:
            out += [(a, b, list(m)) for m in homomorphisms(a, b)]
    fr1, fr2 = corpus.corpus_free(1).algebra, corpus.corpus_free(2).algebra
    out.append((fr2, product([fr1, fr1]), free_product_decomposition_check(boolean_variety(), 1)[1]))
    return out


def test_first_hom_failure_matches_oracle_on_corpus_pairs():
    """One table entry of the source or the target changed, at a seeded
    position, for every op of every corpus pair."""
    rng = random.Random(0)
    failures = 0
    for a, b, m in _corpus_hom_triples():
        assert first_hom_failure(a, b, m) is None and is_homomorphism(a, b, m)
        for (opname, arity), side in iproduct(a.signature.ops, (0, 1)):
            alg = (a, b)[side]
            position = tuple(rng.randrange(alg.size) for _ in range(arity))
            fault = oracles.mutate_table(alg, opname, position, rng.randrange(alg.size))
            pair = (fault, b) if side == 0 else (a, fault)
            want = oracles.first_hom_failure(*pair, m)
            assert first_hom_failure(*pair, m) == want, (a.name, b.name, opname, side)
            assert is_homomorphism(*pair, m) == (want is None)
            failures += want is not None
    assert failures > 1000


def test_hom_search_small_oracle_various():
    g3, l2 = godel(3), luk(2)
    a, b = core_reduct(g3), core_reduct(l2)
    found = set(homomorphisms(a, b))
    brute = {
        img
        for img in iproduct(range(2), repeat=3)
        if is_homomorphism(a, b, list(img))
    }
    assert found == brute


def test_iso_check_symmetric_and_invertible():
    l2 = luk(2)
    p = product([l2, l2])
    q = product([l2, l2])
    m = iso_check(p, q)
    m_back = iso_check(q, p)
    assert m is not None and m_back is not None
    # composing a found iso with an inverse is the identity
    inverse = [None] * len(m)
    for i, v in enumerate(m):
        inverse[v] = i
    assert [inverse[m[i]] for i in range(len(m))] == list(range(len(m)))


def test_iso_check_rejects_non_isomorphic():
    assert iso_check(core_reduct(luk(3)), core_reduct(godel(3))) is None


def test_complement():
    l2 = luk(2)
    p = product([l2, l2])
    a = p.element_index("(0,1)")
    c = complement(p, a)
    assert c == p.element_index("(1,0)")
    assert complement(luk(3), 1) is None


# ---- JSON round trip and builtins -------------------------------------------


def test_json_round_trip(tmp_path):
    l3 = luk(3)
    path = tmp_path / "l3.json"
    path.write_text(l3.dumps())
    back = load_algebra(str(path))
    assert back.name == l3.name and "neg" in back.signature.names()
    assert back.size == l3.size
    assert oracles.table_lists(back) == oracles.table_lists(l3)


def test_unknown_ops_preserved(tmp_path):
    data = luk(2).to_json()
    data["ops"]["blink"] = [1, 0]
    import json

    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    alg = load_algebra(str(path))
    assert "blink" in alg.signature
    assert alg.apply("blink", 0) == 1


def test_builtin_syntax():
    assert parse_builtin("luk:4").size == 4
    assert parse_builtin("builtin:godel:3").name == "godel:3"
    with pytest.raises(InvalidSpecError):
        parse_builtin("prod:3")


def test_star_tables_monotone_on_generated_chains():
    # table-level restatement of t-norm monotonicity, all pairs
    for make in (luk, godel):
        for n in range(2, 7):
            alg = make(n)
            t = alg.tables["star"]
            for x1 in range(n):
                for x2 in range(x1, n):
                    for y in range(n):
                        assert t[x1][y] <= t[x2][y]
                        assert t[y][x1] <= t[y][x2]


# ---- differential: broadcast class checker against the per-tuple oracle --------


@st.composite
def small_algebras(draw):
    """Tables over at most 5 elements: a chain with a few entries changed,
    or random tables (mostly not lattices), with or without MV tables."""
    n = draw(st.integers(1, 5))
    elem = st.integers(0, n - 1)
    square = st.lists(st.lists(elem, min_size=n, max_size=n), min_size=n, max_size=n)
    if n >= 2 and draw(st.booleans()):
        ops = make_chain(ChainSpec(draw(st.sampled_from(CHAIN_KINDS)), n)).to_json()["ops"]
        for _ in range(draw(st.integers(0, 3))):
            name = draw(st.sampled_from(sorted(k for k, t in ops.items() if isinstance(t, list))))
            if isinstance(ops[name][0], list):
                ops[name][draw(elem)][draw(elem)] = draw(elem)
            else:
                ops[name][draw(elem)] = draw(elem)
    else:
        ops = {name: draw(square) for name in ("join", "meet", "star", "imp")}
        ops["zero"], ops["one"] = draw(elem), draw(elem)
        if draw(st.booleans()):
            ops["neg"] = draw(st.lists(elem, min_size=n, max_size=n))
            ops["odot"], ops["oplus"] = draw(square), draw(square)
    return FiniteAlgebra.from_json({"size": n, "ops": ops})


@settings(max_examples=300, deadline=None)
@given(small_algebras())
def test_class_axioms_match_per_tuple_oracle(alg):
    for cls in ALGEBRA_CLASSES:
        assert check_class_axioms(alg, cls) == oracles.check_class_axioms(alg, cls)


def test_chunked_grid_matches_per_tuple_oracle(monkeypatch):
    # a 5-point chunk cuts every grid of a 9-element algebra into rows,
    # so witnesses found past the first chunk are checked too
    import reslat.algebra

    monkeypatch.setattr(reslat.algebra, "_GRID_CHUNK", 5)
    base = product([core_reduct(luk(3)), core_reduct(godel(3))]).to_json()
    faults = [None, ("join", 8, 7, 0), ("meet", 4, 4, 8), ("star", 5, 6, 2), ("imp", 7, 2, 0)]
    for fault in faults:
        data = json.loads(json.dumps(base))
        if fault:
            op, x, y, v = fault
            data["ops"][op][x][y] = v
        alg = FiniteAlgebra.from_json(data)
        for cls in ALGEBRA_CLASSES:
            assert check_class_axioms(alg, cls) == oracles.check_class_axioms(alg, cls)


@pytest.mark.parametrize("family", ["corpus", "kripke", "faulty"])
def test_first_axiom_failure_is_the_reports_first(family):
    """The lazy failures stop at the first; it is the report's first
    violation, on the 67 corpus algebras, Kripke set algebras and single
    faults of both (tests/test_order.py), for every class."""
    from test_order import FAMILIES

    for alg in FAMILIES[family]:
        for cls in ALGEBRA_CLASSES:
            violations = check_class_axioms(alg, cls).violations
            assert next(_axiom_failures(alg, cls), None) == (violations[0] if violations else None)


def test_each_axiom_id_names_one_pair_of_sides():
    """Axiom verdicts are kept per algebra under the axiom's id, so an id
    must name the same (lhs, rhs) in every suite that has it, and one
    axiom within its suite."""
    sides = {}
    for cls, axioms in _AXIOMS.items():
        ids = [aid for aid, _, _ in axioms]
        assert len(set(ids)) == len(ids), cls
        for aid, lhs, rhs in axioms:
            assert sides.setdefault(aid, (lhs, rhs)) == (lhs, rhs), aid


def kripke16():
    from reslat.kripke import KripkeSystem, set_algebra

    system = KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2)
    return set_algebra(system, with_diagonals=True).algebra


def record_family():
    """The corpus algebras, a few products, and the 16-element Kripke set
    algebra with single faults of it."""
    from reslat.corpus import corpus_algebras
    from reslat.kripke import mutate_table

    k16, rng = kripke16(), random.Random(7)
    faults = [k16]
    for op in ("join", "meet", "star", "imp"):
        for _ in range(2):
            a, b = rng.randrange(16), rng.randrange(16)
            value = rng.choice([v for v in range(16) if v != k16.tables[op][a, b]])
            faults.append(mutate_table(k16, op, (a, b), value))
    faults.append(mutate_table(k16, "one", (), 0))
    products = [
        product([luk(2), luk(2), luk(2)]),
        product([luk(3), luk(3)]),
        product([core_reduct(luk(3)), core_reduct(godel(4))]),
    ]
    return corpus_algebras() + products + faults


ORDERS = [
    ALGEBRA_CLASSES,
    ALGEBRA_CLASSES[::-1],
    ("heyting", "residuated-lattice", "boolean", "mv", "bl"),
    ("boolean", "bl", "mv", "heyting", "residuated-lattice"),
]


def test_recorded_axiom_verdicts_match_per_tuple_oracle():
    """Class checks run in several orders on one algebra, each axiom
    verdict read from the algebra's record when an earlier check left it
    there, report what the per-tuple oracle does, witnesses included.
    Before every other check, the first failure of another class is read
    and its generator dropped, which leaves only completed axioms
    recorded.  Each run starts from a fresh copy, so no earlier check, of
    this test or another, has filled its record."""
    for alg in record_family():
        expected = {cls: oracles.check_class_axioms(alg, cls) for cls in ALGEBRA_CLASSES}
        for order in ORDERS:
            copy = FiniteAlgebra.from_json(alg.to_json())
            for i, cls in enumerate(order):
                if i % 2:
                    next(_axiom_failures(copy, order[-1 - i]), None)
                assert check_class_axioms(copy, cls) == expected[cls], (alg.name, order, cls)


def luk3_tables(**changes):
    """luk:3's tables as int32 arrays, each change being an (args...,
    value) entry, which makes the table int64 when the value needs it, a
    whole table, or None for no table."""
    tables = {op: t if type(t) is int else t.copy() for op, t in luk(3).tables.items()}
    for op, change in changes.items():
        if type(change) is tuple:
            *args, value = change
            if not -(2**31) <= value < 2**31:
                tables[op] = tables[op].astype(numpy.int64)
            tables[op][tuple(args)] = value
        elif change is None:
            del tables[op]
        else:
            tables[op] = change
    return tables


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"join": (0, 1, 5), "star": [[0]]}, "table 'join' contains non-element 5"),
        ({"meet": (2, 2, -1), "imp": None}, "table 'meet' contains non-element -1"),
        ({"star": (1, 0, 3), "zero": 7}, "table 'star' contains non-element 3"),
        ({"meet": (0, 0, 4), "neg": [0, 1.5, 2]}, "table 'meet' contains non-element 4"),
        ({"zero": 7, "one": 9}, "table 'zero' contains non-element 7"),
        ({"one": -2, "neg": (1, 3)}, "table 'one' contains non-element -2"),
        ({"neg": (2, 3), "blink": [0]}, "table 'neg' contains non-element 3"),
        ({"join": [[0]], "meet": (0, 0, 5)}, "table 'join' has shape (1, 1), expected (3, 3)"),
        ({"imp": (0, 0, 2**32 + 1)}, "table 'imp' contains non-element 4294967297"),
        ({"star": (0, 0, 2**32), "join": (1, 1, 3)}, "table 'join' contains non-element 3"),
        ({"join": (0, 0, 2**32), "star": (1, 1, 3)}, "table 'join' contains non-element 4294967296"),
        ({"oplus": (1, 1, 2**31)}, "table 'oplus' contains non-element 2147483648"),
        ({"meet": [[0, 0, 0], [0, 1, 1], [0, 1, 7]]}, "table 'meet' contains non-element 7"),
        ({"imp": None}, "missing table for 'imp'"),
        ({"blink": [0]}, "tables without signature entry: ['blink']"),
    ],
    ids=[
        "range-before-shape", "range-before-missing", "range-before-constant",
        "range-before-entry-type", "first-constant", "constant-before-unary",
        "unary-before-extra", "shape-before-range", "wider-than-int32", "narrow-before-wide",
        "wide-before-narrow", "int32-overflow", "list-table", "missing", "extra",
    ],
)
def test_table_errors_name_the_first_faulty_op(changes, message):
    """Element ranges are checked once per stack, but the error is the
    first in signature order (join, meet, star, imp, zero, one, then
    luk:3's oplus, odot and neg), whatever its kind, with its first
    offending entry; entries past int32 are not wrapped into range."""
    with pytest.raises(SignatureError) as got:
        FiniteAlgebra("bad", 3, luk(3).signature, luk3_tables(**changes))
    assert str(got.value) == message


def test_int32_stack_entries_are_range_checked():
    """Tables handed in as rows of an int32 stack, kept without a copy,
    are range-checked on that stack."""
    stack = numpy.zeros((4, 3, 3), dtype=numpy.int32)
    stack[2, 1, 0] = -1
    tables = dict(zip(("join", "meet", "star", "imp"), stack), zero=0, one=2)
    with pytest.raises(SignatureError, match="table 'star' contains non-element -1"):
        FiniteAlgebra("bad", 3, Signature(CORE_OPS), tables)
    stack[2, 1, 0] = 0
    assert FiniteAlgebra("ok", 3, Signature(CORE_OPS), tables)._stacks[2] is stack


@pytest.mark.parametrize(
    "op, table, message",
    [
        ("star", None, "algebra lacks required op 'star'"),
        ("meet", None, "algebra lacks required op 'meet'"),
        ("one", None, "algebra lacks required op 'one'"),
        ("imp", [0, 1, 2], "required op 'imp' must be a binary table"),
        ("zero", [0], "required op 'zero' must be a constant"),
    ],
)
def test_json_algebra_needs_the_six_core_ops(op, table, message):
    data = luk(3).to_json()
    if table is None:
        del data["ops"][op]
    else:
        data["ops"][op] = table
    with pytest.raises(InvalidSpecError) as got:
        FiniteAlgebra.from_json(data)
    assert str(got.value) == message


@pytest.mark.parametrize("bad", [1.7, True, 1.0])
def test_non_integer_table_entries_rejected(tmp_path, bad):
    for op in ("meet", "zero"):
        data = luk(3).to_json()
        if op == "zero":
            data["ops"]["zero"] = bad
        else:
            data["ops"]["meet"][1][2] = bad
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SignatureError, match="non-integer"):
            FiniteAlgebra.load(str(path))


def test_numpy_integer_tables_accepted():
    import numpy as np

    alg = luk(3)
    tables = {name: np.asarray(t, dtype=np.int16) for name, t in alg.tables.items()}
    tables["zero"] = np.int64(alg.zero)
    copy = FiniteAlgebra("copy", 3, alg.signature, tables)
    assert oracles.table_lists(copy) == oracles.table_lists(alg)
    pairs = list(iproduct(range(3), repeat=2))
    reads = [copy.zero, copy.one, copy.const("one")] + [copy.apply("neg", a) for a in range(3)]
    for op in (copy.join, copy.meet, copy.star, copy.imp):
        reads += [op(a, b) for a, b in pairs]
    reads += [copy.apply("oplus", a, b) for a, b in pairs]
    assert all(type(v) is int for v in reads)
    assert all(type(copy.leq(a, b)) is bool for a, b in pairs)
    assert {copy.tables[op].dtype for op in ("imp", "neg")} == {np.dtype(np.int32)}
    assert copy.np_table("imp").tolist() == alg.tables["imp"].tolist()
