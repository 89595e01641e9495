"""Each spectrum, dual sheaf and ideal list is built once, each class
axiom is evaluated once per algebra, and no congruence question that one
congruence settles lists the congruence lattice: call counts of the
enumerations behind the spectral, generic-filter, sheaf and congruence
checks and of the axiom evaluations behind the class checks, taken by
wrapping the module attribute each caller reads."""

from collections import Counter
from pathlib import Path

import pytest

from reslat import algebra, amalgam, cli, corpus, sheaf, spectra
from reslat.algebra import (
    ALGEBRA_CLASSES,
    ChainSpec,
    FiniteAlgebra,
    _axiom_failures,
    check_class_axioms,
    make_chain,
    product,
)
from reslat.kripke import mutate_table
from reslat.logic import generic_filter


def luk(n):
    return make_chain(ChainSpec("lukasiewicz", n))


def ba4():
    return product([luk(2), luk(2)])


@pytest.fixture
def count(monkeypatch):
    """count(name, *modules, key=None): wrap `name` in each module so that
    each call adds one to the returned Counter, under key(*args) when
    given, else under name."""

    def install(name, *modules, key=None):
        calls = Counter()
        for module in modules:
            original = getattr(module, name)

            def wrapped(*args, original=original, **kwargs):
                calls[key(*args) if key else name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)
        return calls

    return install


def by_ops(alg, universe, up, const, binary=(), unary=()):
    return tuple(binary)


@pytest.mark.parametrize("alg", [luk(4), ba4(), product([luk(3), luk(3)])], ids=lambda a: a.name)
def test_spectrum_and_dm_lemma_enumerate_once(count, alg):
    """The space's one star enumeration gives its prime and maximal points
    and item (iii)'s filters; the lemma adds the lattice primes."""
    calls = count("enumerate_closed", spectra, key=by_ops)
    space = spectra.zariski_sets(alg)
    assert spectra.verify_dm_lemma(alg, space=space).passed
    assert calls == {("star",): 1, ("meet",): 1}


def test_generic_filter_enumerates_once(count):
    calls = count("enumerate_closed", spectra, key=by_ops)
    alg = ba4()
    generic_filter(alg, alg.one)
    assert calls == {("star",): 1}


def test_criterion_10_enumerates_once_per_algebra(count):
    """The 500 generic filters read the maximal points of the one space
    built per algebra drawn."""
    calls = count("enumerate_closed", spectra, key=lambda alg, *rest: (alg.name,) + by_ops(alg, *rest))
    assert corpus.criterion_10()["passed"]
    assert set(calls.values()) == {1} and {key[1:] for key in calls} == {("star",)}


def test_omit_enumerates_once(count, capsys):
    """`reslat omit` reads V_M of its types and the generic filter off one
    enumeration, on the README's Fr_2 example."""
    calls = count("enumerate_closed", spectra, key=by_ops)
    data = Path(__file__).parent / "data"
    argv = ["omit", "--alg", str(data / "fr2.json"), "--inside", "g0", "--types", str(data / "types-fr2.json")]
    assert cli.main(argv) == 0
    assert calls == {("star",): 1}


def sheaf_counts(count):
    return [count(name, sheaf) for name in ("sheaf_reduct", "prime_ideals_of", "sections")]


def test_strongly_regular_equiv_check_builds_one_sheaf(count):
    reduct, primes, _ = sheaf_counts(count)
    assert sheaf.strongly_regular_equiv_check(ba4())["equivalent"]
    assert (reduct["sheaf_reduct"], primes["prime_ideals_of"]) == (1, 1)


def test_strongly_regular_equiv_check_lists_no_congruence_lattice(count):
    """Semisimplicity is decided once per stalk of more than one element,
    from its principal congruences."""
    lattices = count("all_congruences", amalgam)
    simple = count("is_simple", sheaf)
    alg = product([luk(2)] * 3)
    assert sheaf.strongly_regular_equiv_check(alg)["equivalent"]
    assert not hasattr(sheaf, "all_congruences") and lattices == {}
    assert simple["is_simple"] == len(sheaf.dual_sheaf(alg).stalks) == 3


def test_cp_extend_lists_no_congruence_lattice(count):
    lattices = count("all_congruences", amalgam)
    alg = ba4()
    ident = tuple(range(alg.size))
    assert amalgam.cp_extend(amalgam.CongruencePair(alg, (1,), (2,), ident, ident)) == ident
    assert lattices == {}


def test_report_builds_one_sheaf_and_one_section_list(count):
    reduct, primes, secs = sheaf_counts(count)
    out = sheaf.report(luk(3), with_eta=True, with_regularity=True)
    assert out["eta_isomorphism"] and out["section_count"] == 3
    assert (reduct["sheaf_reduct"], primes["prime_ideals_of"], secs["sections"]) == (1, 1, 1)


def test_ideal_fallback_tests_for_principal_sets_once(count):
    """On a table whose `meet` is no partial order the principal-set test
    fails once, with or without a universe, before NextClosure runs."""
    alg = mutate_table(luk(4), "meet", (2, 1), 2)  # 1 <= 2 <= 1
    assert alg.partial_order is None
    calls = count("principal_closed", amalgam, algebra)
    given = amalgam.enumerate_ideals(alg, (), range(alg.size))
    assert calls["principal_closed"] == 1
    assert amalgam.enumerate_ideals(alg) == given
    assert calls["principal_closed"] == 2


@pytest.fixture
def evaluated(monkeypatch):
    """evaluated(): a Counter of the axiom ids the class checks evaluated
    since its last call.  It wraps `_evaluate`, which also reads each
    subterm through the module, and pairs its outermost calls, an axiom's
    lhs and then its rhs once per grid chunk (one chunk up to 40
    elements)."""
    axiom_of = {(lhs, rhs): aid for axioms in algebra._AXIOMS.values() for aid, lhs, rhs in axioms}
    original, sides, depth = algebra._evaluate, [], [0]

    def wrapped(term, env):
        if not depth[0]:
            sides.append(term)
        depth[0] += 1
        try:
            return original(term, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(algebra, "_evaluate", wrapped)

    def read():
        ids = Counter(axiom_of[pair] for pair in zip(sides[::2], sides[1::2]))
        sides.clear()
        return ids

    return read


def suite_ids(cls):
    return [aid for aid, _, _ in algebra._AXIOMS[cls]]


def test_each_class_axiom_is_evaluated_once_per_algebra(evaluated):
    """bl and heyting evaluate only what they add to residuated-lattice;
    over all five classes no axiom is evaluated twice; a faulted copy
    evaluates afresh, and reading its first failure evaluates only the
    axioms up to it, which a full check then does not evaluate again."""
    alg = FiniteAlgebra.from_json(luk(4).to_json())  # not make_chain's cached chain
    total = Counter()

    def check(cls):
        check_class_axioms(alg, cls)
        ids = evaluated()
        total.update(ids)
        return ids

    assert check("residuated-lattice") == Counter(suite_ids("residuated-lattice"))
    assert check("bl") == Counter(["prelinearity", "divisibility"])
    assert check("heyting") == Counter(["star-is-meet"])
    for cls in ALGEBRA_CLASSES:
        check(cls)
    assert total == Counter(set().union(*map(suite_ids, ALGEBRA_CLASSES)))

    fault = mutate_table(alg, "star", (1, 2), 3)  # star-comm fails first
    check_class_axioms(fault, "residuated-lattice")
    assert evaluated() == Counter(suite_ids("residuated-lattice"))
    fault = mutate_table(alg, "star", (1, 2), 3)  # a second copy, its record empty
    heyting = suite_ids("heyting")
    assert next(_axiom_failures(fault, "heyting"))[0] == "star-comm"
    upto = heyting.index("star-comm") + 1
    assert evaluated() == Counter(heyting[:upto])
    check_class_axioms(fault, "heyting")
    assert evaluated() == Counter(heyting[upto:])
