"""`FiniteAlgebra.order` and the row and column reads of it that replaced
the per-pair `alg.leq` loops, each against its loop in tests/oracles.py:
same value and same first witness, on the corpus algebras, on Kripke set
algebras (which carry extra operators) and on single-entry faults of
both made by `kripke.mutate_table`.  On the same families, the guard
that no checker the corpus runs is blind: each one's corpus verdict
fails on at least one fault.  Last, the guard that the package holds no
public function or method that only tests reach, unless the README
lists it as API."""

import ast
import random
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import oracles
import reslat
from reslat.algebra import ChainSpec, check_class_axioms, lattice_reduct, make_chain
from reslat.amalgam import (
    AmalgamProblem,
    discriminator_check,
    enumerate_ideals,
    gratzer_schmidt_check,
    ideal_generate,
    ideal_join_characterize,
    interpolant_search,
    is_relatively_complemented,
    superamalgam_check,
)
from reslat.corpus import corpus_algebras, corpus_free
from reslat.free import FreeAlgebra, atoms, is_atomic, is_freely_generated_by
from reslat.kripke import cylinder_indices, mutate_table, neat_reduct, random_kripke
from reslat.logic import isolated_dense_check, join_of_atoms_is_one, type_space
from reslat.sheaf import strongly_regular_equiv_check, zero_dim
from reslat.spectra import generate_filter, nowhere_dense_check, upset, zariski_sets


def single_faults(algs, per_op=4, seed=0):
    """Per algebra and per op of join, meet and star, `per_op` copies with
    one random entry set to another value."""
    rng = random.Random(seed)
    out = []
    for alg in algs:
        n = alg.size
        for op in ("join", "meet", "star"):
            for _ in range(per_op):
                a, b = rng.randrange(n), rng.randrange(n)
                value = rng.choice([v for v in range(n) if v != alg.tables[op][a, b]])
                out.append(mutate_table(alg, op, (a, b), value))
    return out


def cycle():
    """godel:4 with meet(3, 1) = 3 and meet(1, 3) = 0: 1 < 2 < 3 < 1, so
    no nonzero element dominates a complete one."""
    chain = make_chain(ChainSpec("godel", 4))
    return mutate_table(mutate_table(chain, "meet", (3, 1), 3), "meet", (1, 3), 0)


CORPUS = corpus_algebras()
KRIPKE = [random_kripke(s, 2, 2, 2)[1].algebra for s in (1, 5, 6, 8, 11)]
FAMILIES = {
    "corpus": CORPUS,
    "kripke": KRIPKE,
    "faulty": single_faults([a for a in CORPUS if a.size <= 9] + KRIPKE) + [cycle()],
}


def outcome(f, *args, **kw):
    """f's value, or the type of the error it raises."""
    try:
        return f(*args, **kw)
    except Exception as exc:  # the preconditions of faulty tables
        return type(exc)


def test_faulty_family_breaks_the_order():
    """Some faults leave `order` no partial order, and some reach a check."""
    faulty = FAMILIES["faulty"]
    assert any(alg.partial_order is None for alg in faulty)
    assert not all(join_of_atoms_is_one(alg) for alg in faulty)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_order_is_the_meet_definition(family):
    for alg in FAMILIES[family]:
        meet = oracles.table(alg, "meet")
        want = [[meet[a][b] == a for b in range(alg.size)] for a in range(alg.size)]
        assert alg.order.tolist() == want, alg.name
        leq = [[alg.leq(a, b) for b in range(alg.size)] for a in range(alg.size)]
        assert leq == want and all(type(v) is bool for row in leq for v in row), alg.name
        assert not alg.order.flags.writeable


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_upsets_and_atoms_match_loops(family):
    for alg in FAMILIES[family]:
        assert [upset(alg, a) for a in range(alg.size)] == [
            oracles.upset(alg, a) for a in range(alg.size)
        ], alg.name
        assert atoms(alg) == oracles.atoms(alg), alg.name
        assert is_atomic(alg) == oracles.is_atomic(alg), alg.name
        assert join_of_atoms_is_one(alg) == oracles.join_of_atoms_is_one(alg), alg.name


def candidate_sets(alg, rng):
    """Principal up- and down-sets, generated filters and ideals, and each
    of them with one element added or removed."""
    out = []
    for x in range(alg.size):
        down = {b for b in range(alg.size) if alg.leq(b, x)}
        for s in (oracles.upset(alg, x), down, generate_filter(alg, [x]).members,
                  ideal_generate(alg, [x])):
            out += [frozenset(s), frozenset(s) ^ {rng.randrange(alg.size)}]
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_is_filter_and_is_ideal_match_loops(family):
    """A set is a filter (an ideal) iff it is its own generated filter
    (ideal); the lattice ideals are those of the lattice reduct."""
    rng = random.Random(1)
    for alg in FAMILIES[family]:
        lattice = lattice_reduct(alg)
        for s in candidate_sets(alg, rng):
            assert (generate_filter(alg, s).members == s) == oracles.is_filter(alg, s), (alg.name, s)
            for a in (alg, lattice):
                assert (ideal_generate(a, s) == s) == oracles.is_ideal(a, s), (a.name, s)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ideal_join_characterize_matches_loop(family):
    rng = random.Random(2)
    for alg in FAMILIES[family]:
        ideals = [ideal_generate(alg, [x]) for x in rng.sample(range(alg.size), min(alg.size, 5))]
        for m in ideals:
            for n in ideals:
                assert ideal_join_characterize(alg, m, n) == oracles.ideal_join_characterize(
                    alg, m, n
                ), alg.name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_superamalgam_check_matches_loop(family):
    """A = B = D = the algebra; the check reads only the orders, the maps
    and |C|, so C is any chain of the size of the maps m and n."""
    rng = random.Random(3)
    for alg in FAMILIES[family]:
        n, every = alg.size, tuple(range(alg.size))
        bounds = (alg.zero, alg.one)
        spread, spread2 = (tuple(rng.randrange(n) for _ in range(3)) for _ in range(2))
        for m, images in ((every, every), (bounds, bounds), (spread, spread2)):
            c = make_chain(ChainSpec("godel", len(m)))
            problem = AmalgamProblem(alg, alg, c, m, images)
            shuffled = rng.sample(every, n)
            for k, h in ((every, every), (every, shuffled), (shuffled, every)):
                assert superamalgam_check(problem, alg, k, h) == oracles.superamalgam_check(
                    problem, alg, k, h
                ), alg.name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_interpolant_search_matches_loop(family):
    """Both phases: with X1 = {a}, X2 = {b} the common part is Sg of the
    constants, so most pairs need a power of z."""
    rng = random.Random(4)
    powers = 0
    for alg in FAMILIES[family]:
        a, b, c = (rng.randrange(alg.size) for _ in range(3))
        for x1, x2 in (([a, b], [b, c]), ([a], [b])):
            sg1 = sorted(oracles.subalgebra_generate(alg, x1))
            sg2 = sorted(oracles.subalgebra_generate(alg, x2))
            pairs = [(x, z) for x in sg1 for z in sg2]
            ordered = [(x, z) for x, z in pairs if alg.leq(x, z)]  # the rest fail x <= z
            chosen = rng.sample(ordered, min(len(ordered), 6)) + rng.sample(pairs, min(len(pairs), 2))
            for x, z in chosen:
                for tau in (None, 2):
                    got = outcome(interpolant_search, alg, x1, x2, x, z, tau)
                    assert got == outcome(oracles.interpolant_search, alg, x1, x2, x, z, tau), (
                        alg.name, x1, x2, x, z, tau
                    )
                    powers += isinstance(got, tuple) and got[1] > 1
    assert family == "kripke" or powers


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_discriminator_check_matches_loop(family):
    rng = random.Random(5)
    for alg in FAMILIES[family]:
        n = alg.size
        tables = [tuple(range(n)), (alg.zero,) * n, (alg.one,) * n]
        tables += [tuple(alg.tables[u].tolist()) for u in alg.signature.names()
                   if alg.signature.arity(u) == 1]
        tables += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)]
        for d in tables:
            assert discriminator_check(alg, d) == oracles.discriminator_check(alg, d), (
                alg.name, d
            )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_is_relatively_complemented_matches_loop(family):
    for alg in FAMILIES[family]:
        assert is_relatively_complemented(alg) == oracles.is_relatively_complemented(alg), alg.name


def test_is_relatively_complemented_on_boolean_and_chains():
    """Boolean algebras are relatively complemented; a chain of three or
    more elements is not."""
    by_name = {alg.name: alg for alg in CORPUS}
    assert is_relatively_complemented(by_name["Fr_2(luk:2)"])
    assert is_relatively_complemented(by_name["luk:2"])
    assert not is_relatively_complemented(by_name["godel:3"])
    # meet(0, 2) = 1 gives 0 <= 1 <= 2 but not 0 <= 2: no interval [0, 2]
    # is asked for, and every other interval of the chain is complemented
    fault = mutate_table(by_name["luk:3"], "meet", (0, 2), 1)
    assert is_relatively_complemented(fault) and oracles.is_relatively_complemented(fault)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hereditary_closed_matches_loop(family):
    """b is hereditary closed iff its down-set lies in `zero_dim`'s Zd, on
    the algebra and on its restriction to every other operator, reversed."""
    for full in FAMILIES[family]:
        extra, every = full.extra_operator_names(), range(full.size)
        rest = [n for n in full.signature.names() if n not in extra]
        algs = [full]
        if extra:
            algs.append(full.restrict(full.name, every, every, rest + extra[::-2])[0])
        for alg in algs:
            zd = set(zero_dim(alg))
            ops = alg.extra_operator_names()
            for b in range(alg.size):
                below = set(np.flatnonzero(alg.order[:, b]).tolist())
                assert (below <= zd) == oracles.hereditary_closed(alg, b, ops)[0], (alg.name, b, ops)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_isolated_dense_check_matches_loop(family):
    """The check equals its loop over the points and tags of
    `type_space`, and fails on some faults."""
    sparse = 0
    for alg in FAMILIES[family]:
        got = isolated_dense_check(alg, bound=64)
        assert got == oracles.isolated_dense_check(alg, *type_space(alg, bound=64)), alg.name
        sparse += not got[0]
    assert sparse if family == "faulty" else not sparse


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_nowhere_dense_check_matches_loop(family):
    """The pair check finds what a scan of every decomposition of 2 and 3
    parts finds, first failure included: no 3-part residual is nonempty
    while the 2-part ones are empty."""
    for alg in FAMILIES[family]:
        space = zariski_sets(alg, bound=64)
        assert nowhere_dense_check(alg, space) == oracles.nowhere_dense_check(alg, space), alg.name


def every_c(alg):
    """c_(J) for J every index, c_0 applied first: the last c row of
    `KripkeSetAlgebra.unary`."""
    d = np.arange(alg.size)
    for j in cylinder_indices(alg):
        d = alg.np_table("c_%d" % j).take(d)
    return d


def ideal_joins_described(alg):
    ideals = enumerate_ideals(alg, bound=64)
    return all(ideal_join_characterize(alg, m, n) for m in ideals for n in ideals)


FREE_1 = corpus_free(1)

# per checker the corpus runs, whether its corpus verdict holds on an algebra
CORPUS_VERDICTS = {
    "nowhere_dense_check": lambda alg: nowhere_dense_check(alg, zariski_sets(alg, bound=64))[0],
    "is_freely_generated_by": lambda alg: not alg.name.startswith(FREE_1.algebra.name) or (
        is_freely_generated_by(
            FreeAlgebra(alg, FREE_1.generators, FREE_1.coords, FREE_1.variety, FREE_1.vectors),
            FREE_1.generators,
        )
    ),
    "isolated_dense_check": lambda alg: isolated_dense_check(alg, bound=64)[0],
    "gratzer_schmidt_check": lambda alg: alg.size > 20
    or gratzer_schmidt_check(alg, bound=20)["biconditional"],
    "strongly_regular_equiv_check": lambda alg: strongly_regular_equiv_check(alg).get("equivalent", True),
    "ideal_join_characterize": ideal_joins_described,
    "join_of_atoms_is_one": lambda alg: join_of_atoms_is_one(alg)
    == check_class_axioms(alg, "boolean").passed,
    "neat_reduct": lambda alg: all(
        neat_reduct(alg, J)[0] is not None
        for k in range(len(cylinder_indices(alg)) + 1)
        for J in combinations(cylinder_indices(alg), k)
    ),
    "discriminator_check": lambda alg: not cylinder_indices(alg)
    or discriminator_check(alg, every_c(alg))[0],
}


@pytest.mark.parametrize("checker", sorted(CORPUS_VERDICTS))
def test_every_corpus_checker_can_fail(checker):
    """No checker the corpus runs is blind to the algebra: its corpus
    verdict holds on the Kripke family and fails on at least one fault
    of the faulty family."""
    verdict = CORPUS_VERDICTS[checker]
    assert all(verdict(alg) for alg in FAMILIES["kripke"])
    assert any(outcome(verdict, alg) is False for alg in FAMILIES["faulty"])


SRC = Path(reslat.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def public_defs(trees):
    """(module, name, node) of each public module-level function and each
    public method of a public class, the method named Class.method."""
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield mod, node.name, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield mod, "%s.%s" % (node.name, sub.name), sub


def references(tree):
    """(name, line, is_attribute) of every name a module reads or calls:
    a bare name, or an attribute not read off a foreign module (json.dumps
    is not FiniteAlgebra.dumps).  Imports and strings do not count, and
    names are matched without types, so a method shares its attribute
    references with every other definition of its name."""
    foreign = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                yield node.attr, node.lineno, True


def readme_api():
    """Per module, the names the API column of the README's Layout table
    lists, each written as `name`: followed by its reason."""
    rows = re.findall(r"^\| `reslat\.(\w+)` \|.*\| (.*) \|$", README.read_text(), re.M)
    return {mod: set(re.findall(r"`([\w.]+)`:", api)) for mod, api in rows}


def test_every_public_name_is_run_or_listed_as_api():
    """Every public function and method in the package is referenced in
    the package outside its own body, or the README lists it as API with
    its reason; every name listed there exists.  A method counts as
    referenced through an attribute only, a function through either."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {mod: list(references(tree)) for mod, tree in trees.items()}
    api = readme_api()
    defs = list(public_defs(trees))
    unreached = []
    for mod, qualname, node in defs:
        method = "." in qualname
        reached = any(
            ref == node.name
            and (is_attribute or not method)
            and not (m == mod and node.lineno <= line <= node.end_lineno)
            for m, found in refs.items()
            for ref, line, is_attribute in found
        )
        if not reached and qualname not in api.get(mod, ()):
            unreached.append("%s.%s" % (mod, qualname))
    assert not unreached, "neither reached in the package nor listed as API: %s" % unreached
    defined = {(mod, qualname) for mod, qualname, _ in defs}
    stale = sorted((mod, name) for mod, names in api.items() for name in names if (mod, name) not in defined)
    assert not stale
