"""Parser, evaluation, Lindenbaum algebras and the generic-filter engine."""

import random
from itertools import product as iproduct
from math import prod
from types import GeneratorType

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reslat import algebra, budgets, logic
from reslat.algebra import ChainSpec, check_class_axioms, make_chain, product
from reslat.corpus import CHAIN_SPECS
from reslat.errors import DomainError, InvalidSpecError, NoGenericPointError, ResourceError
from reslat.logic import (
    Bin,
    Konst,
    Neg,
    ParseError,
    Theory,
    Var,
    consequence,
    eval_formula,
    expand,
    generic_filter,
    is_tautology,
    isolated_dense_check,
    join_of_atoms_is_one,
    lindenbaum,
    non_principal_certify,
    parse,
    parse_chain_list,
    type_space,
    valuations_at,
    variables,
)
from reslat.spectra import zariski_sets


def luk(n):
    return make_chain(ChainSpec("lukasiewicz", n))


def godel(n):
    return make_chain(ChainSpec("godel", n))


# ---- parser -------------------------------------------------------------------


def test_implication_right_associative():
    assert str(parse("p0 -> p1 -> p2")) == "p0 -> (p1 -> p2)"


def test_negation_expands_to_imp_zero():
    f = expand(parse("~p0"))
    assert f == Bin("->", Var("p0"), Konst(0))


def test_weak_conjunction_expands():
    f = expand(parse("p0 /\\ p1"))
    assert f == Bin("&", Var("p0"), Bin("->", Var("p0"), Var("p1")))


def test_expansion_idempotent():
    for text in ("p0 \\/ p1", "~(p0 <-> p1)", "p0 /\\ (p1 & p2)"):
        once = expand(parse(text))
        assert expand(once) == once


def test_precedence():
    # & binds tighter than /\ binds tighter than \/ binds tighter than ->
    f = parse("p0 & p1 \\/ p2 -> p3")
    assert f.op == "->"
    assert f.left.op == "\\/"
    assert f.left.left.op == "&"


FORMULAS = st.recursive(
    st.sampled_from([Var("p0"), Var("p1"), Var("p2"), Konst(0), Konst(1)]),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Bin, st.sampled_from(["&", "->", "/\\", "\\/", "<->"]), sub, sub),
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(FORMULAS)
def test_printed_formula_parses_back(f):
    """`str` brackets every binary subformula and `parse` reads it back:
    constants, negation and all five binary connectives."""
    assert parse(str(f)) == f


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("p0 -> ")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("(p0")
    with pytest.raises(ParseError):
        parse("p0 22")
    with pytest.raises(ParseError):
        parse("p0 $ p1")


def test_variable_collection():
    assert variables(parse("p0 -> (q \\/ ~p3)")) == {"p0", "q", "p3"}


def test_chain_list_parsing():
    specs = parse_chain_list("luk:2..4,godel:3")
    assert [str(s) for s in specs] == ["luk:2", "luk:3", "luk:4", "godel:3"]
    with pytest.raises(InvalidSpecError):
        parse_chain_list("prod:3")


@pytest.mark.parametrize("name, kind, size", [
    ("luk:3", "lukasiewicz", 3),
    ("LUK:3", "lukasiewicz", 3),
    ("lukasiewicz:3", "lukasiewicz", 3),
    ("Lukasiewicz:3", "lukasiewicz", 3),
    ("builtin:luk:3", "lukasiewicz", 3),
    ("builtin:LUKASIEWICZ:3", "lukasiewicz", 3),
    ("godel:4", "godel", 4),
    ("GODEL:4", "godel", 4),
    ("builtin:godel:4", "godel", 4),
    (" godel:04 ", "godel", 4),
])
def test_chain_names_read_alike_by_both_parsers(name, kind, size):
    spec = ChainSpec(kind, size)
    assert algebra.parse_builtin(name) is make_chain(spec)
    assert parse_chain_list(name) == [spec]
    assert parse_chain_list(str(spec)) == [spec]


# ---- evaluation ------------------------------------------------------------------


def test_eval_join_of_p_and_not_p():
    l3 = luk(3)
    v = {"p": 1}
    assert eval_formula(parse("p \\/ ~p"), l3, v) == 1  # max(1/2, 1/2)


def test_eval_phi_implies_phi():
    for chain in (luk(4), godel(5)):
        for a in range(chain.size):
            assert eval_formula(parse("p -> p"), chain, {"p": a}) == chain.one


def test_prelinearity_exhaustive_on_luk3():
    l3 = luk(3)
    f = parse("(p -> q) \\/ (q -> p)")
    for a in range(3):
        for b in range(3):
            assert eval_formula(f, l3, {"p": a, "q": b}) == l3.one


def test_unbound_variable():
    with pytest.raises(DomainError):
        eval_formula(parse("p0"), luk(3), {})
    for text in ("p0 & q", "~q", "q <-> p0", "1 -> q /\\ r"):
        for evaluate in (eval_formula, oracles.eval_formula):
            with pytest.raises(DomainError, match="unbound variable 'q'"):
                evaluate(parse(text), luk(3), {"p0": 1})


def test_unknown_connective():
    for evaluate in (eval_formula, oracles.eval_formula):
        with pytest.raises(DomainError, match="unknown connective"):
            evaluate(Bin("=>", Var("p0"), Konst(1)), luk(3), {"p0": 1})


def test_tautology_examples():
    ok, _ = is_tautology(parse("(p0->p1) \\/ (p1->p0)"), parse_chain_list("luk:2..6,godel:2..6"))
    assert ok
    ok, counter = is_tautology(parse("p0 \\/ ~p0"), [ChainSpec("lukasiewicz", 3)])
    assert not ok
    assert counter == ("luk:3", {"p0": "1/2"})
    ok, _ = is_tautology(parse("1"), parse_chain_list("luk:2,godel:5"))
    assert ok


def test_tautology_verdicts_same_on_fresh_chains(monkeypatch):
    """Memoized chains give the verdicts that chains built per call give."""
    specs = parse_chain_list("luk:2..6,godel:2..6")
    texts = ("(p0->p1) \\/ (p1->p0)", "p0 \\/ ~p0", "~~p0 -> p0", "(p0 & p1) -> (p0 /\\ p1)",
             "(p0 /\\ (p0 -> p1)) <-> (p0 & (p0 -> p1))", "~(p0 & ~p0)", "1")
    formulas = [parse(t) for t in texts]
    cached = [is_tautology(f, specs) for f in formulas]
    assert cached == [is_tautology(f, specs) for f in formulas]
    monkeypatch.setattr(algebra, "_chain", algebra._chain.__wrapped__)
    assert cached == [is_tautology(f, specs) for f in formulas]


def test_consequence_restricts_to_models():
    theory = Theory((parse("p0"),), (ChainSpec("lukasiewicz", 3),))
    ok, _ = consequence(theory, parse("p0 & p0"))
    assert ok  # only the valuation p0 = 1 satisfies the axiom
    ok, counter = consequence(theory, parse("p1"))
    assert not ok


def test_derived_connective_coherence():
    # expansion route equals primitive-table route; makes all-depth
    # coherence compositional
    for chain in (luk(3), godel(3)):
        for text in ("p /\\ q", "p \\/ q", "~p", "p <-> q"):
            f = parse(text)
            g = expand(f)
            for a in range(chain.size):
                for b in range(chain.size):
                    v = {"p": a, "q": b}
                    assert eval_formula(f, chain, v) == eval_formula(g, chain, v)


def test_join_definition_collapses_to_max_on_chains():
    for chain in (luk(4), godel(4)):
        f = expand(parse("p \\/ q"))
        for a in range(chain.size):
            for b in range(chain.size):
                assert eval_formula(f, chain, {"p": a, "q": b}) == chain.join(a, b)


# ---- Lindenbaum algebras -----------------------------------------------------------


def test_lindenbaum_classical_one_variable():
    lind = lindenbaum(Theory((), (ChainSpec("lukasiewicz", 2),)), 1)
    assert lind.algebra.size == 4
    assert check_class_axioms(lind.algebra, "boolean").passed


def test_lindenbaum_with_axiom():
    lind = lindenbaum(Theory((parse("p0"),), (ChainSpec("lukasiewicz", 2),)), 1)
    assert lind.algebra.size == 2


def test_lindenbaum_luk3_golden_count():
    # golden value: the 1-generated algebra of the variety of luk:3,
    # pinned by the independent closure oracle in test_free
    lind = lindenbaum(Theory((), (ChainSpec("lukasiewicz", 3),)), 1)
    assert lind.algebra.size == 12
    assert check_class_axioms(lind.algebra, "bl").passed


def test_lindenbaum_passes_bl_on_bl_chains():
    lind = lindenbaum(Theory((), (ChainSpec("godel", 3),)), 1)
    assert check_class_axioms(lind.algebra, "bl").passed


def class_of(lind, formula):
    """The class of a formula over p0..p{n-1}: its value in the Lindenbaum
    algebra at the generator classes."""
    names = ("p%d" % i for i in range(len(lind.generator_classes)))
    return eval_formula(formula, lind.algebra, dict(zip(names, lind.generator_classes)))


def test_lindenbaum_representatives_evaluate_into_their_class():
    lind = lindenbaum(Theory((), (ChainSpec("lukasiewicz", 3),)), 1)
    for i, rep in enumerate(lind.reps):
        assert rep is not None
        assert class_of(lind, rep) == i


def test_lindenbaum_operations_are_induced():
    # f([phi], [psi]) = [f(phi, psi)] for the quotient tables
    lind = lindenbaum(Theory((), (ChainSpec("lukasiewicz", 2),)), 1)
    alg = lind.algebra
    for i, phi in enumerate(lind.reps):
        for j, psi in enumerate(lind.reps):
            assert alg.join(i, j) == class_of(lind, Bin("\\/", phi, psi))
            assert alg.star(i, j) == class_of(lind, Bin("&", phi, psi))


def test_henkin_finite_join_shadow():
    # [v phi_i] = v [phi_i] at finite-join scale
    lind = lindenbaum(Theory((), (ChainSpec("godel", 3),)), 2)
    alg = lind.algebra
    phis = [lind.reps[i] for i in range(min(4, alg.size))]
    acc_formula = phis[0]
    acc_class = class_of(lind, phis[0])
    for f in phis[1:]:
        acc_formula = Bin("\\/", acc_formula, f)
        acc_class = alg.join(acc_class, class_of(lind, f))
    assert class_of(lind, acc_formula) == acc_class


def test_inconsistent_theory_rejected():
    with pytest.raises(InvalidSpecError):
        lindenbaum(Theory((parse("0"),), (ChainSpec("lukasiewicz", 2),)), 1)


# ---- differential: Lindenbaum on free_algebra against the tuple-closure oracle -------


NAMES = ("p0", "p1", "p2", "p3", "p4")


def formula_over(rng, depth, names):
    """A random formula of depth at most `depth`; constants only when
    `names` is empty."""
    if depth == 0 or rng.random() < 0.3:
        if not names or rng.random() < 0.15:
            return Konst(rng.randint(0, 1))
        return Var(rng.choice(names))
    if rng.random() < 0.2:
        return Neg(formula_over(rng, depth - 1, names))
    op = rng.choice(["&", "->", "/\\", "\\/", "<->"])
    return Bin(op, formula_over(rng, depth - 1, names), formula_over(rng, depth - 1, names))


def assert_same_lindenbaum(theory, n, rng):
    """lindenbaum and the oracle agree on the algebra (name, signature,
    tables, labels), vectors, representatives, generator classes and
    class_of, or both reject the theory."""
    try:
        want = oracles.lindenbaum(theory, n)
    except InvalidSpecError:
        with pytest.raises(InvalidSpecError):
            lindenbaum(theory, n)
        return
    got = lindenbaum(theory, n)
    assert got.algebra.signature == want.algebra.signature
    assert got.algebra.dumps() == want.algebra.dumps()
    assert got.vectors.tolist() == [list(v) for v in want.vectors]
    assert got.reps == want.reps
    assert got.generator_classes == want.generator_classes
    for f in got.reps + [formula_over(rng, 3, NAMES[:n]) for _ in range(20)]:
        assert class_of(got, f) == want.class_of(f)
    unbound = Bin("&", Var("p0"), Var("p%d" % n))
    with pytest.raises(DomainError):
        class_of(got, unbound)
    with pytest.raises(DomainError):
        want.class_of(unbound)


def L(k):
    return ChainSpec("lukasiewicz", k)


def G(k):
    return ChainSpec("godel", k)


THEORIES = [
    ((), (L(2),), 1),
    (("p0",), (L(2),), 1),
    ((), (L(3),), 1),
    ((), (G(3),), 1),
    ((), (G(3),), 2),
    (("0",), (L(2),), 1),
    (("p0 <-> p1",), (G(3),), 2),
    (("p0 \\/ ~p0",), (L(3), G(3)), 1),
]


@pytest.mark.parametrize("axioms, chains, n", [
    pytest.param(*t, id="%s|%s|%d" % (";".join(t[0]), ",".join(map(str, t[1])), t[2]))
    for t in THEORIES
])
def test_lindenbaum_equals_oracle(axioms, chains, n):
    theory = Theory(tuple(parse(a) for a in axioms), chains)
    assert_same_lindenbaum(theory, n, random.Random(0))


def test_lindenbaum_equals_oracle_on_seeded_theories():
    specs = [ChainSpec(kind, k) for kind in ("lukasiewicz", "godel") for k in (2, 3, 4)]
    compared = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 2)
        chains = tuple(rng.sample(specs, rng.randint(1, 2)))
        axioms = tuple(formula_over(rng, 2, NAMES[:n]) for _ in range(rng.randint(0, 2)))
        theory = Theory(axioms, chains)
        try:
            size = lindenbaum(theory, n).algebra.size
        except ResourceError:
            continue
        except InvalidSpecError:
            size = 0
        if size <= 200:  # the oracle's pair loops take seconds beyond this
            assert_same_lindenbaum(theory, n, rng)
            compared += 1
    assert compared >= 40


def test_lindenbaum_two_variables_over_luk3_stops_at_the_closure_budget():
    theory = Theory((), (L(3),))
    with pytest.raises(ResourceError, match="1173060 candidates over closure budget 1048576"):
        lindenbaum(theory, 2, budget=budgets.Budget())


def test_counterexample_search_reads_the_budget_once_and_stops_at_the_first_failing_chain(monkeypatch):
    specs = parse_chain_list("luk:2..3,luk:5,godel:2..3")
    reads = []
    monkeypatch.setattr(budgets, "from_env", lambda: reads.append(1) or budgets.Budget(chain=4))
    assert is_tautology(parse("p0 \\/ ~p0"), specs) == (False, ("luk:3", {"p0": "1/2"}))
    with pytest.raises(ResourceError, match="chain of 5 elements over budget 4"):
        is_tautology(parse("p0 -> p0"), specs)
    assert reads == [1, 1]


def test_lindenbaum_axiom_outside_its_variables_is_unbound():
    theory = Theory((parse("p0 -> p1"),), (L(3),))
    with pytest.raises(DomainError, match="unbound variable 'p1'"):
        lindenbaum(theory, 1)
    with pytest.raises(DomainError, match="unbound variable 'p1'"):
        oracles.lindenbaum(theory, 1)


# ---- differential: grid evaluation against the recursive per-valuation oracle -------

# names of tables, axiom variables and constants of the term evaluator
ODD_NAMES = ("meet", "imp", "a", "c", "one")


def seeded_formulas(rng, count, names):
    """Random formulas of depth at most 5; every third one is a
    prelinearity instance, which holds on every chain."""
    out = []
    for i in range(count):
        f = formula_over(rng, rng.randint(0, 5), names)
        if i % 3 == 2:
            g = formula_over(rng, 2, names)
            f = Bin("\\/", Bin("->", f, g), Bin("->", g, f))
        out.append(f)
    return out


def assert_same_values(f, chain, rng, samples=6):
    names = sorted(variables(f))
    for _ in range(samples):
        val = {x: rng.randrange(chain.size) for x in names}
        got = eval_formula(f, chain, val)
        assert type(got) is int and got == oracles.eval_formula(f, chain, val)


@pytest.mark.parametrize("k", range(5))
def test_tautology_and_values_match_the_oracle_on_the_corpus_chains(k):
    rng = random.Random(k)
    verdicts = set()
    for f in seeded_formulas(rng, 30, NAMES[:k]):
        want = oracles.is_tautology(f, CHAIN_SPECS)
        assert is_tautology(f, CHAIN_SPECS) == want
        verdicts.add(want[0])
        for spec in CHAIN_SPECS:
            assert_same_values(f, make_chain(spec), rng)
    assert verdicts == {True, False}


def test_constants_and_table_named_variables_match_the_oracle():
    rng = random.Random(5)
    specs = parse_chain_list("luk:2..4,godel:2..4")
    theory = Theory((parse("a -> c"), parse("one \\/ ~meet")), tuple(specs))
    formulas = [parse(t) for t in ("0", "1", "~0", "0 -> 1 & 0", "~1 <-> 0",
                                   "meet & imp -> a \\/ c /\\ one", "c -> one -> c")]
    for f in formulas + seeded_formulas(rng, 24, ODD_NAMES):
        assert is_tautology(f, specs) == oracles.is_tautology(f, specs)
        assert consequence(theory, f) == oracles.consequence(theory, f)
        for spec in specs:
            assert_same_values(f, make_chain(spec), rng)


def nested_disjunction(k, first=()):
    """The left-nested disjunction of the formulas in `first`, then of
    p0, p1, p2, p0, ... up to k connectives."""
    parts = list(first) + [Var(NAMES[i % 3]) for i in range(k + 1 - len(first))]
    f = parts[0]
    for g in parts[1:]:
        f = Bin("\\/", f, g)
    return f


def distinct_subformulas(f):
    """How many distinct subformulas f has, visiting each object once."""
    numbers, memo = {}, {}

    def number(g):
        if id(g) not in memo:
            if isinstance(g, Bin):
                key = (g.op, number(g.left), number(g.right))
            elif isinstance(g, Neg):
                key = ("~", number(g.sub))
            else:
                key = g
            memo[id(g)] = numbers.setdefault(key, len(numbers))
        return memo[id(g)]

    number(f)
    return len(numbers)


def op_nodes(term):
    return 1 + sum(map(op_nodes, term[1:])) if type(term) is tuple else 0


def leaf_reads(term, key):
    return sum(leaf_reads(t, key) for t in term[1:]) if type(term) is tuple else term == key


PRELINEARITY = (parse("p0 -> p1"), parse("p1 -> p0"))


@pytest.mark.parametrize("first", [(), PRELINEARITY], ids=["fails", "holds"])
def test_expanded_deep_disjunctions_match_the_oracle_on_the_unexpanded_formula(first):
    # the expansion is a tree of about 1.5e15 nodes over 169 objects
    f = nested_disjunction(24, first)
    g = expand(f)
    specs = parse_chain_list("luk:3,godel:4")
    assert is_tautology(g, specs) == oracles.is_tautology(f, specs)
    for spec in specs:
        chain = make_chain(spec)
        for values in iproduct(range(chain.size), repeat=3):
            val = dict(zip(NAMES, values))
            assert eval_formula(g, chain, val) == oracles.eval_formula(f, chain, val)


def test_compiled_terms_read_each_distinct_subformula_at_most_once():
    rng = random.Random(23)
    formulas = [expand(nested_disjunction(k)) for k in (1, 6, 24)]
    formulas += [expand(f) for f in seeded_formulas(rng, 60, NAMES[:3])]
    for g in formulas:
        bindings, root, _ = logic._compile(g)
        terms = [t for _, t in bindings] + [root]
        assert sum(map(op_nodes, terms)) <= distinct_subformulas(g)
        for i, (key, _) in enumerate(bindings):  # each binding is read twice or more, later
            assert sum(leaf_reads(t, key) for t in terms[i + 1:]) >= 2
            assert sum(leaf_reads(t, key) for t in terms[:i + 1]) == 0


def test_equal_subformulas_parsed_apart_are_one_binding():
    bindings, root, _ = logic._compile(parse("(p -> q) & (p -> q)"))
    assert bindings == ((bindings[0][0], ("imp", "$p", "$q")),)
    assert root == ("star", bindings[0][0], bindings[0][0])


def test_biconditional_with_both_implications_shared_matches_the_oracle():
    f = parse("(p0 <-> p1) & ((p0 -> p1) \\/ (p1 -> p0))")
    assert len(logic._compile(f)[0]) == 2
    specs = parse_chain_list("luk:2..5,godel:2..5")
    theory = Theory((parse("(p0 -> p1) <-> (p1 -> p0)"),), tuple(specs))
    assert is_tautology(f, specs) == oracles.is_tautology(f, specs)
    assert consequence(theory, f) == oracles.consequence(theory, f)
    for spec in specs:
        chain = make_chain(spec)
        for a, b in iproduct(range(chain.size), repeat=2):
            val = {"p0": a, "p1": b}
            assert eval_formula(f, chain, val) == oracles.eval_formula(f, chain, val)


def test_values_hold_while_formulas_come_and_go_past_the_term_cache():
    # each formula is dropped after use, so a later one may take its id;
    # 3000 of them overflow the cache of compiled terms many times
    rng = random.Random(17)
    chain = luk(4)
    for _ in range(3000):
        f = formula_over(rng, 3, NAMES[:2])
        val = {x: rng.randrange(chain.size) for x in variables(f)}
        assert eval_formula(f, chain, val) == oracles.eval_formula(f, chain, val)


# axiom variables, formula variables: disjoint, nested both ways, overlapping
SPLITS = [
    (("p0", "p1"), ("p2",)),
    (("p2",), ("p0", "p1")),
    (("p0",), ("p0", "p1", "p2")),
    (("p0", "p1", "p2"), ("p1",)),
    (("p0", "p1"), ("p1", "p2")),
    ((), ("p0", "p1")),
]


def seeded_consequences(rng, count):
    """(theory, formula) pairs over SPLITS; every other formula is the
    fusion of the axioms joined with a formula in its own variables, a
    consequence whatever the chains."""
    specs = [s for s in CHAIN_SPECS if s.size <= 4]
    for i in range(count):
        axiom_names, formula_names = SPLITS[i % len(SPLITS)]
        axioms = tuple(formula_over(rng, 2, axiom_names) for _ in range(rng.randint(1, 2)))
        f = formula_over(rng, 3, formula_names)
        if i % 2:
            f = Bin("\\/", Bin("&", axioms[0], axioms[-1]), f)
        yield Theory(axioms, tuple(rng.sample(specs, 2))), f


def test_consequence_matches_the_oracle_when_axioms_and_formula_differ_in_variables():
    verdicts = set()
    for theory, f in seeded_consequences(random.Random(11), 90):
        want = oracles.consequence(theory, f)
        assert consequence(theory, f) == want
        verdicts.add(want[0])
    assert verdicts == {True, False}


def test_first_failures_across_chunk_boundaries(monkeypatch):
    # 7-point chunks cut every grid of two or more variables, and fix the
    # leading variables of grids of four and five
    monkeypatch.setattr(algebra, "_GRID_CHUNK", 7)
    specs = parse_chain_list("luk:2..5,godel:2..5")
    late = [  # the first failure lies past the first chunk
        Neg(Bin("&", Var("p0"), Bin("&", Var("p1"), Var("p2")))),
        parse("~(p0 /\\ p1 /\\ p2 /\\ p3)"),
        parse("~(p3 & p4) \\/ ~(p0 /\\ p1) \\/ ~p2"),
    ]
    for f in late:
        ok, (_, counter) = is_tautology(f, specs)
        assert not ok and set(counter.values()) != {"0"}
    rng = random.Random(13)
    for f in late + seeded_formulas(rng, 12, NAMES):
        assert is_tautology(f, specs) == oracles.is_tautology(f, specs)
    for theory, f in seeded_consequences(rng, 24):
        assert consequence(theory, f) == oracles.consequence(theory, f)
    for axioms, chains, n in [(("p0 <-> p1",), (G(3), L(2)), 2), (("p0 \\/ ~p0",), (L(3), G(4)), 1)]:
        assert_same_lindenbaum(Theory(tuple(parse(a) for a in axioms), chains), n, rng)


@pytest.mark.parametrize("chunk, n, k", [
    (7, 3, 5), (7, 4, 4), (7, 2, 0), (7, 5, 1), (1 << 16, 20, 5), (1 << 16, 50, 4), (1 << 16, 300, 3),
])
def test_grid_chunks_list_the_grid_in_product_order_within_the_bound(monkeypatch, chunk, n, k):
    monkeypatch.setattr(algebra, "_GRID_CHUNK", chunk)
    chunks = list(algebra._grid_chunks(n, ["v%d" % i for i in range(k)]))
    shapes = [numpy.broadcast_shapes(*(g.shape for g in grid.values())) for grid in chunks]
    assert max(map(prod, shapes)) <= max(chunk, n * n)
    assert sum(map(prod, shapes)) == n ** k
    if n ** k <= 1000:
        points = [p for grid, shape in zip(chunks, shapes)
                  for p in valuations_at(grid, numpy.ones(shape, dtype=bool))]
        assert points == list(iproduct(range(n), repeat=k))


def test_a_five_variable_formula_runs_in_bounded_chunks(monkeypatch):
    monkeypatch.setattr(algebra, "_GRID_CHUNK", 7)
    seen = []

    def spy(n, names):
        chunks = list(algebra._grid_chunks(n, names))
        seen.append((n, [prod(numpy.broadcast_shapes(*(g.shape for g in c.values()))) for c in chunks]))
        return chunks

    monkeypatch.setattr(logic, "_grid_chunks", spy)
    f = parse("(p0 & p1 & p2 & p3 & p4) -> (p4 /\\ p3 /\\ p2 /\\ p1 /\\ p0)")
    specs = parse_chain_list("luk:2..4,godel:2..4")
    assert is_tautology(f, specs) == oracles.is_tautology(f, specs) == (True, None)
    assert [n for n, _ in seen] == [spec.size for spec in specs]
    for n, sizes in seen:
        assert max(sizes) <= max(7, n * n) and sum(sizes) == n ** 5


def test_a_range_check_builds_chains_one_at_a_time_and_stops_at_the_first_failure(monkeypatch):
    built = []

    def counting(spec, budget):
        built.append(spec)
        return make_chain(spec, budget)

    monkeypatch.setattr(logic, "make_chain", counting)
    specs = parse_chain_list("godel:2..40")
    ok, (spec, _) = is_tautology(parse("p0 \\/ ~p0"), specs)  # holds on godel:2 only
    assert not ok and spec == "godel:3" and built == specs[:2]


@pytest.mark.parametrize("text, spec", [("p0 & p1 & p2 & p3 & p4", "godel:40"), ("p0 & p1 & p2 & p3 & p4 & p5", "luk:12")])
def test_a_long_grid_is_walked_lazily_up_to_the_first_failure(monkeypatch, text, spec):
    # each grid comes in over 20000 chunks; the first one fails
    monkeypatch.setattr(algebra, "_GRID_CHUNK", 7)
    pulled = []

    def counting(n, names):
        chunks = algebra._grid_chunks(n, names)
        assert isinstance(chunks, GeneratorType)  # not a list of every chunk
        for chunk in chunks:
            pulled.append(chunk)
            yield chunk

    monkeypatch.setattr(logic, "_grid_chunks", counting)
    ok, (_, counter) = is_tautology(parse(text), parse_chain_list(spec))
    assert not ok and len(pulled) == 1
    assert list(counter.values()) == [counter["p0"]] * len(counter)


# ---- types and generic filters ------------------------------------------------------


def test_non_principal_certificates():
    alg = product([luk(2), luk(2)])
    a = alg.element_index("(0,1)")
    b = alg.element_index("(1,0)")
    assert non_principal_certify(alg, [a, b])
    assert not non_principal_certify(alg, [alg.one])


def test_certificate_on_descending_chain():
    g4 = godel(4)
    assert not non_principal_certify(g4, [3, 2, 1])  # meet = 1/3 != 0
    assert non_principal_certify(g4, [3, 2, 1, 0])


def test_generic_filter_no_avoid():
    alg = product([luk(2), luk(2)])
    f = generic_filter(alg, alg.one)
    space = zariski_sets(alg)
    least = min(space.max_points, key=lambda g: g.bitmask())
    assert f.members == least.members


def test_generic_filter_avoids():
    alg = product([luk(2), luk(2)])
    space = zariski_sets(alg)
    first, second = space.max_points
    got = generic_filter(alg, alg.one, [[first]])
    assert got.members == second.members


def test_generic_filter_oracle_equivalence():
    rng = random.Random(5)
    algs = [product([luk(2), luk(2)]), godel(4), luk(4)]
    for _ in range(100):
        alg = algs[rng.randrange(len(algs))]
        space = zariski_sets(alg)
        maxes = space.max_points
        a = rng.randrange(1, alg.size)
        k = rng.randint(0, len(maxes))
        avoid_pts = [maxes[i] for i in sorted(rng.sample(range(len(maxes)), k))]
        admissible = [
            f
            for f in maxes
            if a in f.members and f.members not in {g.members for g in avoid_pts}
        ]
        if admissible:
            got = generic_filter(alg, a, [avoid_pts])
            assert got.members == min(admissible, key=lambda f: f.bitmask()).members
        else:
            with pytest.raises(NoGenericPointError):
                generic_filter(alg, a, [avoid_pts])


def test_generic_filter_rejects_zero():
    with pytest.raises(DomainError):
        generic_filter(luk(3), 0)


def test_type_space_classical():
    lind = lindenbaum(Theory((), (ChainSpec("lukasiewicz", 2),)), 1)
    space, tags = type_space(lind.algebra)
    assert len(space.max_points) == 2
    assert tags == [True, True]


def test_type_space_single_point():
    lind = lindenbaum(Theory((parse("p0"),), (ChainSpec("lukasiewicz", 2),)), 1)
    space, tags = type_space(lind.algebra)
    assert len(space.max_points) == 1 and tags == [True]


def test_type_space_on_godel_lindenbaum():
    lind = lindenbaum(Theory((), (ChainSpec("godel", 3),)), 1)
    space, tags = type_space(lind.algebra)
    assert len(space.max_points) >= 1
    assert all(tags)  # finite algebras: every maximal filter is principal


def test_isolated_types_dense():
    for alg in (godel(4), product([luk(2), luk(2)]), luk(3)):
        ok, witness = isolated_dense_check(alg)
        assert ok, witness


def test_join_of_atoms_on_boolean_corpus():
    from reslat.free import boolean_variety, free_algebra

    for alg in (
        product([luk(2), luk(2)]),
        free_algebra(boolean_variety(), 2).algebra,
    ):
        assert join_of_atoms_is_one(alg)


def test_join_lemma_needs_complementation():
    # documented defect: the sup lemma's proof uses b ^ -b = 0; on a chain
    # the single atom is dense below every nonzero element yet joins to
    # itself, not to 1
    from reslat.free import atoms

    g4 = godel(4)
    assert atoms(g4) == [1]
    assert all(g4.leq(1, b) for b in range(1, g4.size))  # dense
    assert not join_of_atoms_is_one(g4)


LUK3, GODEL3 = str(ChainSpec("lukasiewicz", 3)), str(ChainSpec("godel", 3))


@pytest.mark.parametrize("planted, want", [
    ({10: [None, (0, 1)]}, ("formula", GODEL3, 10, 0, 1)),
    ({10: [None, (0, 1)], 20: [(1, 1), None]}, ("formula", LUK3, 20, 1, 1)),
    ({10: [None, (0, 1)], 2: [None, (2, 2)], 3: [None, (0, 2)]}, ("connective", GODEL3, 3, 0, 2)),
    ({2: [None, (0, 0)], 20: [(2, 1), None]}, ("formula", LUK3, 20, 2, 1)),
    ({}, None),
], ids=["godel-formula", "luk-formula-first", "godel-connective", "luk-before-godel-connective", "pass"])
def test_criterion_11_reports_luk3_before_godel3(monkeypatch, planted, want):
    """Criterion 11 checks each formula on both chains at once, and still
    reports a failure on luk:3 before any on godel:3, connectives before
    formulas, and among the connectives the first (a, b).  The planted
    first differences stand for the 4 connectives and 2000 formulas in
    the order the criterion checks them."""
    from reslat import corpus

    seen = []

    def planted_differences(chains, f):
        seen.append(f)
        return planted.get(len(seen) - 1, [None, None])

    monkeypatch.setattr(corpus, "_first_differences", planted_differences)
    result = corpus.criterion_11()
    assert len(seen) == 2004
    if want is None:
        assert result["passed"]
        return
    kind, spec, k, a, b = want
    name = str(seen[k]) if kind == "formula" else ("p0 /\\ p1", "p0 \\/ p1", "~p0", "p0 <-> p1")[k]
    assert not result["passed"] and result["details"] == (kind, spec, name, a, b)
