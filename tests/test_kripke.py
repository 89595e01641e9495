"""Kripke systems, their set algebras and the equational suites."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from reslat import kripke
from reslat.algebra import check_class_axioms
from reslat.budgets import Budget
from reslat.errors import ClosureError, InvalidSpecError, ResourceError
from reslat.kripke import (
    KripkeSystem,
    SemigroupG,
    compose,
    detect_fault,
    mutate_table,
    neat_reduct,
    random_kripke,
    replacement,
    set_algebra,
    verify_derived_identities,
    verify_diagonal_equivalence_shadow,
    verify_gpha_axioms,
    verify_heyting_quantifiers,
    verify_kripke,
)


def one_world(base=2, alpha=2):
    return KripkeSystem(1, [[True]], {0: tuple(range(base))}, None, alpha)


def growing_pair(alpha=1):
    return KripkeSystem(
        2, [[True, True], [False, True]], {0: (0,), 1: (0, 1)}, None, alpha
    )


# ---- system invariants ----------------------------------------------------------


def test_preorder_must_be_reflexive():
    with pytest.raises(InvalidSpecError):
        KripkeSystem(1, [[False]], {0: (0,)}, None, 1)


def test_base_sets_must_grow():
    with pytest.raises(InvalidSpecError):
        KripkeSystem(
            2, [[True, True], [False, True]], {0: (0, 1), 1: (0,)}, None, 1
        )


def test_assignment_sets_must_grow():
    with pytest.raises(InvalidSpecError):
        KripkeSystem(
            2,
            [[True, True], [False, True]],
            {0: (0,), 1: (0, 1)},
            {0: [(0,)], 1: [(1,)]},
            1,
        )


def test_json_round_trip():
    system = growing_pair()
    back = KripkeSystem.from_json(system.to_json())
    assert back.to_json() == system.to_json()


def semigroups_over_alpha_2():
    """Every SemigroupG over alpha = 2: the three maps every G holds, with
    or without the swap (1, 0), which gives SemigroupG.full(2)."""
    found = []
    for extra in ((), ((1, 0),)):
        try:
            found.append(SemigroupG(2, ((0, 0), (0, 1), (1, 1)) + extra))
        except InvalidSpecError:
            pass
    return found


def generated(maps):
    """The closure of maps under compose."""
    closed, frontier = set(), list(maps)
    while frontier:
        x = frontier.pop()
        if x not in closed:
            closed.add(x)
            frontier += [compose(x, y) for y in closed] + [compose(y, x) for y in closed]
    return closed


@pytest.mark.parametrize(
    "G",
    [SemigroupG.full(1), SemigroupG.full(3), *semigroups_over_alpha_2()],
    ids=lambda G: "alpha-%d-%d-maps" % (G.alpha, len(G.maps)),
)
def test_generators_with_the_identity_generate_G(G):
    ident = tuple(range(G.alpha))
    assert ident not in G.generators
    assert list(G.generators) == sorted(G.generators)
    assert generated(G.generators + (ident,)) == set(G.maps)


def test_generators_of_the_full_semigroup():
    assert SemigroupG.full(2).generators == ((0, 0), (1, 0))
    assert SemigroupG.full(3).generators == ((0, 0, 1), (0, 2, 1), (1, 0, 2))


def test_semigroup_must_contain_replacements():
    with pytest.raises(InvalidSpecError):
        SemigroupG(2, ((0, 1),))
    g = SemigroupG.full(2)
    assert len(g.maps) == 4
    assert compose((1, 0), (1, 0)) == (0, 1)
    assert replacement(3, 0, 2) == (2, 1, 2)


# ---- set algebra construction -----------------------------------------------------


def test_single_assignment_universe():
    ksa = set_algebra(KripkeSystem(1, [[True]], {0: (0,)}, None, 1))
    alg = ksa.algebra
    assert alg.size == 2
    assert alg.tables["c_0"].tolist() == list(range(2))  # sup over a single assignment


def test_four_assignment_instance():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    assert alg.size == 16
    d01 = alg.const("d_0_1")
    fam = ksa.decode(d01)
    assert fam[0] == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    assert alg.apply("c_0", d01) == alg.one


def test_growing_worlds_q_of_top():
    ksa = set_algebra(growing_pair())
    alg = ksa.algebra
    assert alg.apply("q_0", alg.one) == alg.one


def is_monotone_family(system, fam):
    """Each world function is at most its value at every later world."""
    return all(
        fam[k][v] <= fam[l][v]
        for k in range(system.world_count())
        for l in range(system.world_count())
        if system.leq[k][l]
        for v in system.assignments[k]
    )


def test_every_element_is_monotone():
    ksa = set_algebra(growing_pair(), with_diagonals=True)
    for idx in range(ksa.algebra.size):
        assert is_monotone_family(ksa.system, ksa.decode(idx))


def test_closure_of_operations_stays_monotone():
    # table entries land inside the enumerated monotone universe, so a
    # KeyError-free build is itself the closure proof; spot check them too
    ksa = set_algebra(growing_pair())
    alg = ksa.algebra
    for name, ar in alg.signature.ops:
        if ar == 1:
            for x in range(alg.size):
                assert 0 <= alg.apply(name, x) < alg.size


def test_assignment_budget():
    with pytest.raises(ResourceError):
        set_algebra(one_world(base=3, alpha=3))  # 27 assignments > 16


def test_universe_budget():
    with pytest.raises(ResourceError):
        set_algebra(one_world(base=2, alpha=2), budget=Budget(kripke_universe=8))


def test_substitution_closure_error():
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, {0: [(0, 1)]}, 2)
    with pytest.raises(ClosureError):
        set_algebra(system)


def test_relativized_assignments_supported_when_closed():
    system = KripkeSystem(
        1, [[True]], {0: (0, 1, 2)}, {0: [(0, 0), (0, 1), (1, 0), (1, 1)]}, 2
    )
    ksa = set_algebra(system, with_diagonals=True)
    assert ksa.algebra.size == 16


def test_star_equals_meet():
    ksa = set_algebra(one_world())
    assert ksa.algebra.tables["star"].tolist() == ksa.algebra.tables["meet"].tolist()
    assert check_class_axioms(ksa.algebra, "heyting").passed


# ---- equational suites -------------------------------------------------------------


def test_derived_identities_on_canonical_instances():
    for ksa in (
        set_algebra(one_world(), with_diagonals=True),
        set_algebra(growing_pair(), with_diagonals=True),
    ):
        report = verify_derived_identities(ksa)
        assert report.passed, report.violations[:3]


def test_gpha_axioms_on_canonical_instances():
    for ksa in (
        set_algebra(one_world(), with_diagonals=True),
        set_algebra(growing_pair(), with_diagonals=True),
    ):
        report = verify_gpha_axioms(ksa)
        assert report.passed, report.violations[:3]


def test_heyting_quantifier_axioms():
    ksa = set_algebra(one_world(), with_diagonals=True)
    for j in range(2):
        report = verify_heyting_quantifiers(ksa, j)
        assert report.passed, report.violations


def test_quantifier_bounds_and_idempotence():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    for j in range(2):
        for x in range(alg.size):
            cx = alg.apply("c_%d" % j, x)
            qx = alg.apply("q_%d" % j, x)
            assert alg.leq(qx, x) and alg.leq(x, cx)
            assert alg.apply("c_%d" % j, cx) == cx
            assert alg.apply("q_%d" % j, qx) == qx


def test_substitution_homomorphism_family():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    ident = tuple(range(ksa.alpha))
    assert alg.tables["s_01"].tolist() == list(range(alg.size))
    for sigma in ksa.G:
        for tau in ksa.G:
            for x in range(alg.size):
                lhs = alg.apply(
                    "s_" + "".join(map(str, sigma)),
                    alg.apply("s_" + "".join(map(str, tau)), x),
                )
                rhs = alg.apply(
                    "s_" + "".join(map(str, compose(sigma, tau))), x
                )
                assert lhs == rhs


def test_diagonal_shadow():
    ksa = set_algebra(one_world(), with_diagonals=True)
    ok, witness = verify_diagonal_equivalence_shadow(ksa)
    assert ok, witness


def test_corrupted_cylindrifier_detected():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    # break idempotence/increasingness of c_0 at one entry
    broken = mutate_table(alg, "c_0", (3,), alg.zero)
    assert detect_fault(ksa, broken)
    wrapped_report = verify_derived_identities(
        type(ksa)(broken, ksa.system, ksa.G, ksa.with_diagonals, ksa.positions, ksa.masks)
    )
    assert not wrapped_report.passed


def test_verify_kripke_runs_suites_in_order():
    ksa = set_algebra(one_world(), with_diagonals=True)
    results = list(verify_kripke(ksa))
    assert [suite for suite, _, _ in results] == [
        ("derived",), ("gpha",), ("quantifiers", 0), ("quantifiers", 1), ("diagonals",)
    ]
    assert all(passed for _, passed, _ in results)
    broken = type(ksa)(
        mutate_table(ksa.algebra, "c_0", (3,), ksa.algebra.zero),
        ksa.system, ksa.G, ksa.with_diagonals, ksa.positions, ksa.masks,
    )
    suite, passed, detail = next(verify_kripke(broken))
    assert suite == ("derived",) and not passed
    assert detail == verify_derived_identities(broken).violations


# ---- dimension sets and neat reducts ------------------------------------------------


def test_dimension_sets_of_bounds():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    assert oracles.dimension_set(alg, alg.zero) == frozenset()
    assert oracles.dimension_set(alg, alg.one) == frozenset()


def test_dimension_set_of_diagonal():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    assert oracles.dimension_set(alg, alg.const("d_0_1")) <= {0, 1}


def test_cylindrified_elements_lose_the_index():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    for x in range(alg.size):
        assert 0 not in oracles.dimension_set(alg, alg.apply("c_0", x))


def test_neat_reduct_full_and_empty():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    full, witness = neat_reduct(alg, [0, 1])
    assert witness is None and full.size == alg.size
    empty, witness = neat_reduct(alg, [])
    assert witness is None
    assert set(empty.embedding) == {
        x for x in range(alg.size) if oracles.dimension_set(alg, x) == frozenset()
    }


def test_neat_reduct_single_index():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    nr, witness = neat_reduct(alg, [0])
    assert witness is None
    for x in nr.embedding:
        assert oracles.dimension_set(alg, x) <= {0}
    assert "c_0" in nr.signature and "c_1" not in nr.signature


@pytest.mark.parametrize("opname", ["d_0_0", "c_0", "s_01", "meet"])
def test_neat_reduct_witness_for_open_candidate_set(opname):
    """One corrupted entry sends an element of Nr_{0} outside it; the
    witness names that op and its arguments as elements of the algebra."""
    alg = set_algebra(one_world(), with_diagonals=True).algebra
    inside = [x for x in range(alg.size) if oracles.dimension_set(alg, x) <= {0}]
    outside = next(x for x in range(alg.size) if x not in inside)
    args = {"d_0_0": (), "meet": (inside[1], inside[2])}.get(opname, (inside[1],))
    broken = mutate_table(alg, opname, args, outside)
    # only c_1 decides membership in the candidate set, and it is untouched
    assert [x for x in range(alg.size) if oracles.dimension_set(broken, x) <= {0}] == inside
    reduct, witness = neat_reduct(broken, [0])
    assert reduct is None and witness == (opname, args)
    assert witness == oracles.neat_reduct(broken, [0])[1]


# ---- random systems -----------------------------------------------------------------


def test_set_algebra_refuses_a_semigroup_over_the_closure_budget(monkeypatch):
    """T_5 needs 5^10 composite checks, over 2^20: refused before G is
    built.  T_4 needs 4^8 and is built."""
    monkeypatch.setattr(SemigroupG, "full", None)  # calling it would raise TypeError
    one_world = KripkeSystem(1, [[True]], {0: (0,)}, None, 5)
    with pytest.raises(ResourceError, match="9765625 composite checks, over closure budget 1048576"):
        set_algebra(one_world, budget=Budget())
    monkeypatch.undo()
    assert set_algebra(KripkeSystem(1, [[True]], {0: (0,)}, None, 4), budget=Budget()).G.alpha == 4


def test_random_kripke_redraws_over_the_semigroup_budget(monkeypatch):
    """Seed 1 draws alpha = 5 first; set_algebra refuses it and the next
    draw is kept."""
    drawn = []

    def spy(system, *args, **kw):
        drawn.append(system.alpha)
        return set_algebra(system, *args, **kw)

    monkeypatch.setattr(kripke, "set_algebra", spy)
    system, _ = random_kripke(1, 1, 1, 5, budget=Budget())
    assert drawn == [5, 1] and system.alpha == 1


def test_random_system_reproducible():
    a, _ = random_kripke(1, 2, 2, 2)
    b, _ = random_kripke(1, 2, 2, 2)
    assert a.dumps() == b.dumps()


def test_random_golden_seed():
    # frozen golden value for seed 1 under the fixed PRNG draw sequence
    system, ksa = random_kripke(1, 2, 2, 2)
    assert system.to_json() == {
        "format": "reslat/1",
        "worlds": [0],
        "leq": [[True]],
        "base": {"0": [0, 1]},
        "assignments": {"0": [[0], [1]]},
        "alpha": 1,
    }
    assert ksa.algebra.size == 4


def test_trivial_bounds_give_trivial_system():
    system, ksa = random_kripke(0, 1, 1, 1)
    assert system.world_count() == 1
    assert ksa.algebra.size == 2


def test_many_seeds_pass_invariants():
    for seed in range(25):
        system, ksa = random_kripke(seed, 3, 3, 3)
        assert system.total_assignments() <= 16
        assert verify_derived_identities(ksa).passed


def test_quantifiers_additive_and_multiplicative():
    ksa = set_algebra(one_world(), with_diagonals=True)
    alg = ksa.algebra
    for j in range(ksa.alpha):
        for x in range(alg.size):
            for y in range(alg.size):
                cj = lambda v: alg.apply("c_%d" % j, v)
                qj = lambda v: alg.apply("q_%d" % j, v)
                assert cj(alg.join(x, y)) == alg.join(cj(x), cj(y))
                assert qj(alg.meet(x, y)) == alg.meet(qj(x), qj(y))


# ---- differential: vectorized build against the mask-loop oracle --------------------


def assert_same_build(system, budget=None, **kw):
    """set_algebra and the per-entry oracle agree on signature, tables and
    masks, or raise the same error."""
    try:
        want = oracles.set_algebra_tables(system, budget=budget, **kw)
    except (ClosureError, ResourceError) as exc:
        with pytest.raises(type(exc)) as got:
            set_algebra(system, budget=budget, **kw)
        assert str(got.value) == str(exc)
        return
    sig, tables, masks = want
    ksa = set_algebra(system, budget=budget, **kw)
    alg = ksa.algebra
    assert alg.signature.ops == sig
    assert ksa.masks == masks
    for name, _ in sig:
        assert oracles.table(alg, name) == tables[name], name


def test_set_algebra_matches_oracle_on_random_systems():
    for seed in range(100):
        system, _ = random_kripke(seed, 3, 3, 3)
        assert_same_build(system, with_diagonals=True)


def test_set_algebra_matches_oracle_on_hand_built_systems():
    for system in (
        KripkeSystem(1, [[True]], {0: (0,)}, None, 1),
        one_world(),
        growing_pair(),
        KripkeSystem(
            1, [[True]], {0: (0, 1, 2)}, {0: [(0, 0), (0, 1), (1, 0), (1, 1)]}, 2
        ),
        # 12 positions and 16 elements: 2**12 > 16**2, so the result masks
        # are looked up by search, not in a dense table
        KripkeSystem(3, [[True] * 3] * 3, {k: (0, 1) for k in range(3)}, None, 2),
    ):
        for diagonals in (False, True):
            assert_same_build(system, with_diagonals=diagonals)


def test_set_algebra_matches_oracle_on_errors():
    assert_same_build(one_world(base=3, alpha=3))  # 27 assignments > 16
    assert_same_build(one_world(base=2, alpha=2), budget=Budget(kripke_universe=8))
    not_closed = KripkeSystem(1, [[True]], {0: (0, 1)}, {0: [(0, 1)]}, 2)
    assert_same_build(not_closed)
    with pytest.raises(ClosureError) as got:
        set_algebra(not_closed)
    with pytest.raises(ClosureError) as want:
        oracles.set_algebra_tables(not_closed)
    assert (got.value.world, got.value.assignment, got.value.tau) == (
        want.value.world, want.value.assignment, want.value.tau
    )


def beyond_64_positions():
    """11 mutually accessible worlds sharing 6 assignments: 66 positions,
    more than a 64-bit mask holds, but only 2**6 elements."""
    w = 11
    return KripkeSystem(w, [[True] * w] * w, {k: tuple(range(6)) for k in range(w)}, None, 1)


def test_set_algebra_beyond_64_positions_matches_oracle():
    assert_same_build(beyond_64_positions(), budget=Budget(kripke_assignments=66), with_diagonals=True)


@pytest.mark.parametrize("chunk", [7, 100, 250])
def test_set_algebra_matches_oracle_in_ragged_row_blocks(monkeypatch, chunk):
    """The binary tables are built in blocks of max(1, _GRID_CHUNK // n)
    rows.  Blocks of one row, and blocks that leave a shorter last one,
    give the oracle's tables: with masks looked up in the dense table
    (16 to 81 elements), and searched (12 positions and 16 elements, and
    66 positions held as Python ints)."""
    monkeypatch.setattr(kripke, "_GRID_CHUNK", chunk)
    searched = KripkeSystem(3, [[True] * 3] * 3, {k: (0, 1) for k in range(3)}, None, 2)
    cases = [(one_world(), None), (searched, None), (beyond_64_positions(), Budget(kripke_assignments=66))]
    cases += [(random_kripke(seed, 3, 3, 3)[0], None) for seed in (0, 10, 11, 12)]
    sizes = []
    for system, budget in cases:
        assert_same_build(system, budget=budget, with_diagonals=True)
        sizes.append(set_algebra(system, budget=budget).algebra.size)
    assert chunk < min(sizes) or any(n % max(1, chunk // n) for n in sizes)


# ---- differential: batched suites against the loop-suite oracles --------------------


def wrap(ksa, algebra):
    """A set algebra of the same system around another table set."""
    return type(ksa)(algebra, ksa.system, ksa.G, ksa.with_diagonals, ksa.positions, ksa.masks)


def criterion_7_faults(ksa):
    """The single-entry faults of criterion 7: every other constant, and
    t + 1 mod n at each entry of a unary or binary table."""
    alg = ksa.algebra
    n = alg.size
    for name, arity in alg.signature.ops:
        t = alg.tables[name]
        if arity == 0:
            yield from ((name, (), v) for v in range(n) if v != t)
        elif arity == 1:
            yield from ((name, (i,), (t[i] + 1) % n) for i in range(n))
        else:
            yield from ((name, (i, j), (t[i][j] + 1) % n) for i in range(n) for j in range(n))


def assert_same_reports(ksa, faults=()):
    """verify_kripke equals the oracle on ksa and on each faulted copy."""
    assert list(verify_kripke(ksa)) == oracles.verify_kripke(ksa)
    for name, pos, v in faults:
        broken = wrap(ksa, mutate_table(ksa.algebra, name, pos, v))
        assert list(verify_kripke(broken)) == oracles.verify_kripke(broken), (name, pos, v)


def test_suites_match_oracle_on_random_systems():
    for seed in range(200):
        _, ksa = random_kripke(seed, 3, 3, 3)
        assert list(verify_kripke(ksa)) == oracles.verify_kripke(ksa), seed


def test_suites_match_oracle_on_criterion_7_faults():
    ksa = set_algebra(one_world(), with_diagonals=True)
    faults = list(criterion_7_faults(ksa))
    assert len(faults) == 1242
    assert_same_reports(ksa, faults)


def no_swap_group():
    """The three maps of alpha = 2 without the swap (1, 0): identity and
    the two constants, which are the replacements [0|1] and [1|0]."""
    return SemigroupG(2, ((0, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize(
    "system, G, diagonals",
    [
        pytest.param(one_world(), no_swap_group(), True, id="non-full-G"),
        pytest.param(growing_pair(2), no_swap_group(), False, id="non-full-G-no-diagonals"),
        pytest.param(one_world(), None, False, id="no-diagonals"),
        pytest.param(growing_pair(), None, True, id="alpha-1"),
        pytest.param(one_world(base=3, alpha=1), None, False, id="alpha-1-no-diagonals"),
    ],
)
def test_suites_match_oracle_on_other_shapes(system, G, diagonals):
    """Shapes the random corpus never builds, with every unary-table fault."""
    ksa = set_algebra(system, G=G, with_diagonals=diagonals)
    assert_same_reports(ksa, [f for f in criterion_7_faults(ksa) if len(f[1]) == 1])


def test_suites_match_oracle_on_alpha_3_faults():
    """Four elements and 27 substitution tables, of which three are the
    generators the 2-endo identities are checked on when the s-laws hold:
    one fault in each other substitution, and every entry of join, meet
    and imp."""
    system = KripkeSystem(1, [[True]], {0: (0, 1)}, {0: [(0, 0, 0), (1, 1, 1)]}, 3)
    ksa = set_algebra(system, with_diagonals=True)
    alg = ksa.algebra
    n = alg.size
    assert (n, len(ksa.G.maps)) == (4, 27)
    assert ksa.G.generators == ((0, 0, 1), (0, 2, 1), (1, 0, 2))
    faults = []
    for t, tau in enumerate(ksa.G.maps):
        if tau not in ksa.G.generators:
            name = "s_" + "".join(map(str, tau))
            faults.append((name, (t % n,), (alg.tables[name][t % n] + 1) % n))
    faults += [f for f in criterion_7_faults(ksa) if f[0] in ("join", "meet", "imp")]
    assert len(faults) == 24 + 3 * n * n
    assert_same_reports(ksa, faults)


def test_substitution_fault_witness_past_the_first_batch_row(monkeypatch):
    """A fault in the last substitution: the first failing s-law pair is
    not the first row, and with one row per chunk not in the first chunk."""
    from reslat import kripke

    ksa = set_algebra(one_world(), with_diagonals=True)
    last = ksa.G.maps[-1]
    broken = wrap(ksa, mutate_table(ksa.algebra, "s_" + "".join(map(str, last)), (5,), 0))
    want = oracles.verify_kripke(broken)
    witness = dict(want[0][2])["3-s-compose"]
    assert witness != (ksa.G.maps[0], ksa.G.maps[0])
    assert list(verify_kripke(broken)) == want
    monkeypatch.setattr(kripke, "_GRID_CHUNK", 1)
    assert list(verify_kripke(wrap(ksa, broken.algebra))) == want


def test_cylindrifier_fault_off_the_image_breaks_exists4():
    """c_0 changed at an element outside its image: the image the
    quantifier suite ranges over is the faulted one."""
    ksa = set_algebra(one_world(), with_diagonals=True)
    C = ksa.algebra.tables["c_0"]
    off = next(x for x in range(ksa.algebra.size) if x not in C)
    broken = wrap(ksa, mutate_table(ksa.algebra, "c_0", (off,), off))
    report = verify_heyting_quantifiers(broken, 0)
    assert "exists4-imp" in [aid for aid, _ in report.violations]
    assert report.violations == oracles.verify_heyting_quantifiers(broken, 0).violations


def test_suites_match_oracle_in_small_chunks(monkeypatch):
    """Chunk boundaries inside every grid and batch give the same reports,
    also for the faults in a unary table or the last row of a binary one."""
    from reslat import kripke

    monkeypatch.setattr(kripke, "_GRID_CHUNK", 7)
    for seed in range(0, 100, 7):
        _, ksa = random_kripke(seed, 3, 3, 3)
        assert list(verify_kripke(ksa)) == oracles.verify_kripke(ksa), seed
    ksa = set_algebra(one_world(), with_diagonals=True)
    last = ksa.algebra.size - 1
    assert_same_reports(
        ksa, [f for f in criterion_7_faults(ksa) if len(f[1]) == 1 or f[1][:1] == (last,)]
    )


def test_detect_fault_equals_the_full_reports_on_criterion_7_faults():
    """detect_fault stops at the first failing Heyting axiom, then at the
    first failing Kripke suite; its verdict on each of the 1,242 faults,
    and on the unfaulted algebra, is that of the full class report and
    every suite."""
    ksa = set_algebra(one_world(), with_diagonals=True)
    cases = [ksa.algebra] + [mutate_table(ksa.algebra, *f) for f in criterion_7_faults(ksa)]
    assert len(cases) == 1243
    for alg in cases:
        full = not check_class_axioms(alg, "heyting").passed or not all(
            passed for _, passed, _ in verify_kripke(wrap(ksa, alg))
        )
        assert detect_fault(ksa, alg) is full
    assert not detect_fault(ksa, ksa.algebra)


def test_checks_do_not_import_numpy_ma():
    """numpy.unique imports numpy.ma on its first call, about 10 ms, so the
    Kripke suites and the isomorphism search use no numpy.unique: run in a
    fresh interpreter, they leave numpy.ma unimported."""
    code = "; ".join(
        (
            "import sys",
            "from reslat import algebra, kripke",
            "_, ksa = kripke.random_kripke(0)",
            "assert all(passed for _, passed, _ in kripke.verify_kripke(ksa))",
            "ba4 = algebra.product([algebra.make_chain(algebra.ChainSpec('lukasiewicz', 2))] * 2)",
            "assert algebra.iso_check(ba4, ba4) == (0, 1, 2, 3)",
            "print('numpy.ma' in sys.modules)",
        )
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kripke.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_reports_do_not_share_witnesses():
    """A caller changing a reported witness leaves later reports intact."""
    ksa = set_algebra(one_world(), with_diagonals=True)
    broken = wrap(ksa, mutate_table(ksa.algebra, "c_0", (3,), ksa.algebra.zero))
    first = verify_gpha_axioms(broken).violations
    for _, witness in first:
        for part in witness if isinstance(witness, tuple) else [witness]:
            if isinstance(part, list):
                part.append(99)
    assert verify_gpha_axioms(wrap(ksa, broken.algebra)).violations == (
        oracles.verify_gpha_axioms(broken).violations
    )
    assert first != oracles.verify_gpha_axioms(broken).violations
