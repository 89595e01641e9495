"""CLI surface: verbs, exit codes, JSON shape, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from reslat import cli
from reslat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_taut_pass(capsys):
    code, out, _ = run(capsys, "taut", "(p0->p1)\\/(p1->p0)", "--chains", "luk:2..6")
    assert code == 0
    assert "tautology" in out


def test_taut_counterexample(capsys):
    code, out, _ = run(capsys, "taut", "p0\\/~p0", "--chains", "luk:3")
    assert code == 1
    assert "1/2" in out


def test_check_mv_failure_witness(capsys):
    code, out, _ = run(capsys, "check", "builtin:godel:3", "--class", "mv")
    assert code == 1
    assert "1/2" in out


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "luk:5", "--class", "mv")
    assert code == 0


def test_json_output_is_versioned(capsys):
    code, out, _ = run(capsys, "--json", "check", "godel:3", "--class", "bl")
    assert code == 0
    data = json.loads(out)
    assert data["format"] == "reslat/1"
    assert data["passed"] is True


def test_spectrum_verb(capsys):
    code, out, _ = run(capsys, "--json", "spectrum", "godel:3", "--verify-lemma")
    assert code == 0
    data = json.loads(out)
    assert data["lemma"]["passed"] is True
    assert len(data["points"]) == 2


def test_free_verb(capsys):
    code, out, _ = run(
        capsys, "--json", "free", "--variety", "ba", "--gens", "2", "--atoms"
    )
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 16 and len(data["atoms"]) == 4


def test_sheaf_verb(capsys):
    code, out, _ = run(capsys, "sheaf", "luk:3", "--eta", "--regularity")
    assert code == 0
    assert "eta isomorphism: True" in out


def test_kripke_verb(capsys):
    code, out, _ = run(
        capsys,
        "kripke",
        "verify",
        "--random",
        "3",
        "--seed",
        "2",
        "--max-worlds",
        "2",
        "--max-base",
        "2",
        "--alpha",
        "2",
    )
    assert code == 0
    assert "0 failures" in out


def test_kripke_verb_failure_entries(capsys, monkeypatch):
    """Each failing suite of each system is one entry, in suite order:
    derived and gpha entries carry violations, quantifier entries only
    the suite name with its index."""
    from reslat import kripke

    ksa = kripke.set_algebra(
        kripke.KripkeSystem(1, [[True]], {0: (0, 1)}, None, 2), with_diagonals=True
    )
    ksa.algebra = kripke.mutate_table(ksa.algebra, "c_0", (3,), ksa.algebra.zero)
    monkeypatch.setattr(kripke, "random_kripke", lambda *args: (None, ksa))
    code, out, _ = run(capsys, "--json", "kripke", "verify", "--random", "2", "--seed", "5")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert [(f["seed"], f["suite"]) for f in failures] == [
        (5, "derived"), (5, "gpha"), (5, "quantifiers-0"),
        (6, "derived"), (6, "gpha"), (6, "quantifiers-0"),
    ]
    assert failures[0]["violations"][0] == ["1-increasing[0]", 0]
    assert set(failures[2]) == {"seed", "suite"}


def test_lindenbaum_verb(tmp_path, capsys):
    theory = tmp_path / "t.json"
    theory.write_text(json.dumps({"axioms": [], "chains": ["luk:2"]}))
    code, out, _ = run(capsys, "--json", "lindenbaum", "--theory", str(theory), "--vars", "1")
    assert code == 0
    assert json.loads(out)["classes"] == 4


def test_interp_verb(tmp_path, capsys):
    from reslat.free import boolean_variety, free_algebra

    fr = free_algebra(boolean_variety(), 2)
    path = tmp_path / "fr2.json"
    path.write_text(fr.algebra.dumps())
    code, out, _ = run(
        capsys,
        "interp",
        "--alg",
        str(path),
        "--x",
        "g0 /\\ g1",
        "--z",
        "g0 \\/ g1",
        "--x1",
        "g0,g1",
        "--x2",
        "g0,g1",
    )
    assert code == 0
    assert "interpolant" in out


def _ba4_problem(tmp_path):
    """Two four-element Boolean algebras over the two-element chain."""
    from reslat.algebra import ChainSpec, make_chain, product

    l2 = make_chain(ChainSpec("lukasiewicz", 2))
    ba4 = product([l2, l2], name="ba4")
    emb = [ba4.element_index("(0,0)"), ba4.element_index("(1,1)")]
    problem = {
        "A": ba4.to_json(),
        "B": ba4.to_json(),
        "C": l2.to_json(),
        "m": emb,
        "n": emb,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return path


def test_amalgamate_verb(tmp_path, capsys):
    path = _ba4_problem(tmp_path)
    code, out, _ = run(capsys, "--json", "amalgamate", "--problem", str(path), "--max-size", "16")
    assert code == 0
    data = json.loads(out)
    assert data["amalgam_size"] >= 2


def test_amalgamate_reads_the_amalgam_budget(tmp_path, capsys, monkeypatch):
    """Without --max-size the amalgam_size budget bounds the search; the
    smallest amalgam here has four elements."""
    path = _ba4_problem(tmp_path)
    monkeypatch.setenv("RESLAT_BUDGET", "amalgam_size=2")
    code, out, _ = run(capsys, "amalgamate", "--problem", str(path))
    assert code == 1
    assert "none within bound" in out
    monkeypatch.setenv("RESLAT_BUDGET", "amalgam_size=4")
    code, out, _ = run(capsys, "amalgamate", "--problem", str(path))
    assert code == 0
    assert "|D| = 4" in out


def test_omit_verb(tmp_path, capsys):
    from reslat.free import boolean_variety, free_algebra

    fr = free_algebra(boolean_variety(), 1)
    path = tmp_path / "fr1.json"
    path.write_text(fr.algebra.dumps())
    types = tmp_path / "types.json"
    types.write_text(json.dumps({"types": [["g0 /\\ ~g0"]]}))
    code, out, _ = run(
        capsys, "omit", "--alg", str(path), "--inside", "1", "--types", str(types)
    )
    assert code == 0
    assert "generic filter" in out


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 2
    assert main(["check", "luk:3"]) == 2  # missing --class
    assert main(["--threads", "2", "kripke", "verify"]) == 2


def test_malformed_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("RESLAT_BUDGET", "foo")
    code, _, err = run(capsys, "spectrum", "luk:3")
    assert code == 2
    assert "RESLAT_BUDGET" in err


def test_non_json_algebra_file_exit_code(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text("not json")
    code, _, err = run(capsys, "check", str(path), "--class", "mv")
    assert code == 2
    assert str(path) in err


def test_algebra_file_without_size_exit_code(tmp_path, capsys):
    from reslat.algebra import ChainSpec, make_chain

    data = make_chain(ChainSpec("lukasiewicz", 3)).to_json()
    del data["size"]
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "check", str(path), "--class", "mv")
    assert code == 2
    assert str(path) in err and "size" in err


def luk3_json(**changes):
    from reslat.algebra import ChainSpec, make_chain

    return {**make_chain(ChainSpec("lukasiewicz", 3)).to_json(), **changes}


@pytest.mark.parametrize(
    "data",
    [
        [luk3_json()],
        luk3_json(size="x"),
        luk3_json(size=True),
        luk3_json(size=3.0),
        luk3_json(size=0),
        luk3_json(ops=[]),
        luk3_json(labels=5),
        luk3_json(labels=[1, [2], "1"]),
    ],
    ids=[
        "top-level-list", "size-string", "size-bool", "size-float", "size-zero", "ops-list",
        "labels-int", "labels-not-strings",
    ],
)
def test_malformed_algebra_file_exit_code(tmp_path, capsys, data):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "check", str(path), "--class", "mv")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "op, table",
    [("star", None), ("meet", None), ("zero", None), ("star", [0, 1, 2]), ("one", [2])],
    ids=["no-star", "no-meet", "no-zero", "unary-star", "listed-one"],
)
@pytest.mark.parametrize(
    "argv", ["spectrum {} --verify-lemma", "free --variety {} --gens 1", "check {} --class mv"]
)
def test_algebra_file_without_a_core_op_exit_code(tmp_path, capsys, op, table, argv):
    """An algebra file must give join, meet, star and imp as binary tables
    and zero and one as constants; else every verb exits 2, with the error
    also on stdout in --json mode, and no traceback."""
    data = luk3_json()
    if table is None:
        del data["ops"][op]
    else:
        data["ops"][op] = table
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, *flags, *argv.format(path).split())
        assert code == 2
        assert err.startswith("error: ") and repr(op) in err and "Traceback" not in err
        if flags:
            assert json.loads(out)["error"] == err[len("error: ") :].strip()


@pytest.mark.parametrize(
    "op, table",
    [("oplus", [0, 1, 2]), ("odot", 1), ("neg", [[0, 1, 2]] * 3), ("neg", 2)],
    ids=["unary-oplus", "constant-odot", "binary-neg", "constant-neg"],
)
@pytest.mark.parametrize("argv", ["check {} --class mv", "sheaf {}"])
def test_algebra_file_with_a_misshapen_mv_op_exit_code(tmp_path, capsys, op, table, argv):
    """An algebra file that gives oplus, odot or neg must give oplus and
    odot as binary tables and neg as a unary one; else the verb exits 2
    naming the op, with the error also on stdout in --json mode, and no
    traceback."""
    data = luk3_json()
    data["ops"][op] = table
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, *flags, *argv.format(path).split())
        assert code == 2
        assert err.startswith("error: ") and repr(op) in err and "Traceback" not in err
        if flags:
            assert json.loads(out)["error"] == err[len("error: ") :].strip()


def test_algebra_file_errors_name_their_file(tmp_path, capsys):
    """With two algebra files, the error names the faulty one, keeps its
    class and exits 2."""
    from reslat.algebra import FiniteAlgebra
    from reslat.errors import SignatureError

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(luk3_json()))
    data = luk3_json()
    del data["ops"]["star"]
    bad.write_text(json.dumps(data))
    for files in ((good, bad), (bad, good)):
        variety = ",".join(str(f) for f in files)
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, "free", "--variety", variety, "--gens", "1")
            assert code == 2
            assert err == "error: %s: algebra lacks required op 'star'\n" % bad
            if flags:
                assert json.loads(out)["error"] == err[len("error: ") :].strip()
    data = luk3_json()
    data["ops"]["meet"][2][2] = 7
    bad.write_text(json.dumps(data))
    with pytest.raises(SignatureError) as exc:
        FiniteAlgebra.load(str(bad))
    assert str(exc.value) == "%s: table 'meet' contains non-element 7" % bad


@pytest.mark.parametrize("n", [9, 14, 30])
def test_sheaf_of_all_zero_tables_exit_code(tmp_path, capsys, monkeypatch, n):
    """join, meet, star and imp all 0: the order is no partial order, so
    every subset of the nonzero elements with 0 is an ideal.  At 9
    elements the 256 ideals are listed and, under --regularity, the
    regularity scan of 255 * 256^2 pairs is refused; from 14 elements
    on, NextClosure over more than the spectrum budget is refused while
    the sheaf is built.  Both exit 3 at once."""
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    zeros = [[0] * n for _ in range(n)]
    ops = {"join": zeros, "meet": zeros, "star": zeros, "imp": zeros, "zero": 0, "one": n - 1}
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"size": n, "ops": ops}))
    flags = ["--regularity"] if n == 9 else []
    start = time.perf_counter()
    code, _, err = run(capsys, "sheaf", str(path), *flags)
    assert time.perf_counter() - start < 1
    assert code == 3
    limit = "16711680 ideal pairs over closure budget 1048576" if n == 9 else "(size %d) over bound 12" % n
    assert err.startswith("resource bound: ") and limit in err


def test_sheaf_runs_only_the_parts_its_flags_ask_for(tmp_path, capsys, monkeypatch):
    """luk:6 x luk:6, a corpus algebra of 36 elements: the sheaf report
    passes with or without --regularity, and only --regularity meets the
    closure budget of the regularity scan, 45,360 ideal pairs, when it is
    set one lower; the message names the file."""
    from reslat.algebra import ChainSpec, core_reduct, make_chain, product

    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    luk6 = core_reduct(make_chain(ChainSpec("lukasiewicz", 6)))
    path = tmp_path / "luk6-squared.json"
    path.write_text(product([luk6, luk6]).dumps())
    code, out, _ = run(capsys, "--json", "sheaf", str(path), "--eta")
    report = json.loads(out)
    assert code == 0
    assert (report["section_count"], report["eta_isomorphism"]) == (36, True)
    assert "regularity" not in report
    code, out, _ = run(capsys, "--json", "sheaf", str(path), "--regularity")
    assert code == 0
    assert json.loads(out)["regularity"] == {
        "regular": True,
        "strongly_regular": False,
        "congruence_strongly_regular": False,
    }
    monkeypatch.setenv("RESLAT_BUDGET", "closure=45359")
    code, _, err = run(capsys, "sheaf", str(path), "--regularity")
    assert code == 3
    assert err.startswith("resource bound: %s: regularity scan of 45360 ideal pairs" % path)


def test_sheaf_of_the_one_element_algebra(tmp_path, capsys):
    """No point, one section (the empty tuple), and eta an isomorphism."""
    ops = {"join": [[0]], "meet": [[0]], "star": [[0]], "imp": [[0]], "zero": 0, "one": 0}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"size": 1, "ops": ops}))
    code, out, _ = run(capsys, "--json", "sheaf", str(path), "--eta")
    report = json.loads(out)
    assert code == 0
    assert (report["base_points"], report["section_count"], report["eta_isomorphism"]) == ([], 1, True)


@pytest.mark.parametrize(
    "argv",
    [
        "check {} --class mv",
        "spectrum {}",
        "lindenbaum --theory {} --vars 1",
        "amalgamate --problem {}",
        "omit --alg luk:3 --inside 1 --types {}",
    ],
)
def test_non_utf8_file_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, *argv.format(path).split())
    assert code == 2
    assert err.startswith("error: %s is not UTF-8" % path)


@pytest.mark.parametrize(
    "m, n",
    [([0, 9], [0, 3]), ([0, 3], [-1, 3]), ([0, 3], [0]), ([0, "3"], [0, 3]), ([0, True], [0, 3]),
     ([0, 3], 3)],
    ids=["m-above", "n-negative", "n-short", "m-string", "m-bool", "n-int"],
)
def test_amalgam_map_outside_the_universe_exit_code(tmp_path, capsys, m, n):
    from reslat.algebra import ChainSpec, make_chain, product

    l2 = make_chain(ChainSpec("lukasiewicz", 2))
    ba4 = product([l2, l2], name="ba4")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"A": ba4.to_json(), "B": ba4.to_json(), "C": l2.to_json(), "m": m, "n": n}))
    code, _, err = run(capsys, "amalgamate", "--problem", str(path))
    assert code == 2
    assert err.startswith("error: ") and "elements of C" in err


def test_interp_on_dumped_fr3(tmp_path, capsys):
    """The README interp example: generators keep their g<i> labels in Fr_3."""
    from reslat.free import boolean_variety, free_algebra

    path = tmp_path / "fr3.json"
    path.write_text(free_algebra(boolean_variety(), 3).algebra.dumps())
    code, out, _ = run(
        capsys, "interp", "--alg", str(path), "--x", "g0 /\\ g1", "--z", "g1 \\/ g2",
        "--x1", "g0,g1", "--x2", "g1,g2",
    )
    assert code == 0
    assert out.startswith("interpolant: ")


def test_resource_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("RESLAT_BUDGET", "spectrum=2")
    code, _, err = run(capsys, "spectrum", "godel:4")
    assert code == 3


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        ("check nosuch.json --class mv", 2, "error: "),
        ("spectrum godel:4", 3, "resource bound: "),
    ],
)
def test_json_error_on_stdout(capsys, monkeypatch, argv, code, prefix):
    """In --json mode an error is also a versioned report on stdout; the
    exit code and the stderr line are those of the plain mode."""
    monkeypatch.setenv("RESLAT_BUDGET", "spectrum=2")
    plain = run(capsys, *argv.split())
    got, out, err = run(capsys, "--json", *argv.split())
    assert got == plain[0] == code
    assert err == plain[2] and err.startswith(prefix)
    assert plain[1] == ""
    assert out == json.dumps(
        {"error": err[len(prefix):].rstrip("\n"), "format": "reslat/1"}, indent=2, sort_keys=True
    ) + "\n"


def kripke_system_json(**changes):
    from reslat.kripke import random_kripke

    system, _ = random_kripke(3, 2, 2, 2)
    return {**system.to_json(), **changes}


def test_kripke_system_file(tmp_path, capsys):
    """--system reports on the system in the file as --random does on the
    random system it was dumped from, without the seed."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(kripke_system_json()))
    code, out, _ = run(capsys, "--json", "kripke", "verify", "--system", str(path))
    assert code == 0
    assert json.loads(out) == {"systems": 1, "failures": [], "format": "reslat/1"}
    random = "--json kripke verify --random 1 --seed 3 --max-worlds 2 --max-base 2 --alpha 2"
    assert run(capsys, *random.split())[:2] == (code, out)
    code, out, _ = run(capsys, "kripke", "verify", "--system", str(path))
    assert (code, out) == (0, "1 systems verified, 0 failures\n")


@pytest.mark.parametrize(
    "data",
    [
        [],
        kripke_system_json(worlds=2),
        kripke_system_json(leq=[[1]]),
        kripke_system_json(leq=[[True, False]]),
        kripke_system_json(alpha="2"),
        kripke_system_json(alpha=True),
        kripke_system_json(alpha=0),
        kripke_system_json(base=[[0]]),
        kripke_system_json(base={"7": [0]}),
        kripke_system_json(base={"0": ["a"]}),
        kripke_system_json(assignments={"0": [0]}),
        kripke_system_json(assignments={"0": [[0, 0, 0]]}),
        {k: v for k, v in kripke_system_json().items() if k != "alpha"},
    ],
    ids=[
        "top-level-list", "worlds-int", "leq-int", "leq-not-square", "alpha-string",
        "alpha-bool", "alpha-zero", "base-list", "base-unknown-world", "base-string",
        "assignment-int", "assignment-too-long", "no-alpha",
    ],
)
def test_malformed_kripke_system_file_exit_code(tmp_path, capsys, data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "kripke", "verify", "--system", str(path))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("alpha", [3, 10**6])
def test_kripke_system_file_over_budget_exit_code(tmp_path, capsys, monkeypatch, alpha):
    """27 assignments, or a function space too large to list, over the
    default budget of 16."""
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    path = tmp_path / "system.json"
    data = {"worlds": [0], "leq": [[True]], "base": {"0": [0, 1, 2]}, "alpha": alpha}
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "kripke", "verify", "--system", str(path))
    assert code == 3
    assert err.startswith("resource bound: ") and "over budget 16" in err


def test_kripke_system_file_semigroup_over_budget_exit_code(tmp_path, capsys, monkeypatch):
    """One world and one assignment, but alpha = 5: G = T_5 needs 5^10
    composite checks, over the closure budget."""
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"worlds": [0], "leq": [[True]], "base": {"0": [0]}, "alpha": 5}))
    start = time.perf_counter()
    code, _, err = run(capsys, "kripke", "verify", "--system", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("resource bound: ") and "9765625" in err and "1048576" in err


def test_kripke_system_and_random_exclude_each_other(tmp_path, capsys):
    code, _, err = run(capsys, "kripke", "verify", "--random", "1", "--system", "s.json")
    assert code == 2
    assert "not allowed with" in err


def test_determinism(capsys):
    a = run(capsys, "--json", "spectrum", "godel:4")
    b = run(capsys, "--json", "spectrum", "godel:4")
    assert a == b


def test_corpus_verb_wired():
    from reslat.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["corpus", "run"])
    assert args.action == "run"


def test_free_decompose_check_over_closure_budget_exit_code(capsys):
    # Fr_4 for the decomposition check: its closure blocks exceed the default
    # closure budget, which is reported before anything is allocated
    code, _, err = run(
        capsys, "free", "--variety", "ba", "--gens", "3", "--atoms", "--decompose-check"
    )
    assert code == 3
    assert "over closure budget 1048576" in err and "Traceback" not in err


# a file that is not JSON, and one whose top level is not an object
NOT_A_SPEC = ("not json", "[1,2]")


def test_non_json_theory_file_exit_code(tmp_path, capsys):
    path = tmp_path / "theory.json"
    for text in NOT_A_SPEC:
        path.write_text(text)
        code, _, err = run(capsys, "lindenbaum", "--theory", str(path), "--vars", "1")
        assert code == 2
        assert str(path) in err


def test_theory_axiom_outside_the_variables_exit_code(tmp_path, capsys):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"axioms": ["p0 -> p1"], "chains": ["luk:3"]}))
    code, _, err = run(capsys, "lindenbaum", "--theory", str(path), "--vars", "1")
    assert code == 2
    assert "unbound variable 'p1'" in err and "Traceback" not in err


def test_non_json_problem_file_exit_code(tmp_path, capsys):
    path = tmp_path / "problem.json"
    for text in ("{",) + NOT_A_SPEC:
        path.write_text(text)
        code, _, err = run(capsys, "amalgamate", "--problem", str(path))
        assert code == 2
        assert str(path) in err


def test_non_json_types_file_exit_code(tmp_path, capsys):
    path = tmp_path / "types.json"
    for text in ("[g0",) + NOT_A_SPEC:
        path.write_text(text)
        code, _, err = run(
            capsys, "omit", "--alg", "luk:3", "--inside", "1", "--types", str(path)
        )
        assert code == 2
        assert str(path) in err


@pytest.mark.parametrize("types", [5, "1", [5], ["1"], [[1]], [["1", None]]], ids=json.dumps)
def test_malformed_types_file_exit_code(tmp_path, capsys, types):
    path = tmp_path / "types.json"
    path.write_text(json.dumps({"types": types}))
    code, _, err = run(capsys, "omit", "--alg", "luk:3", "--inside", "1", "--types", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_element_exit_code(tmp_path, capsys):
    path = tmp_path / "types.json"
    path.write_text(json.dumps({"types": [["e1 /\\ zz"]]}))
    for inside, name in (("yy -> 1", "yy"), ("1", "zz")):
        code, _, err = run(capsys, "omit", "--alg", "luk:3", "--inside", inside, "--types", str(path))
        assert code == 2
        assert "unknown element %r" % name in err


@pytest.mark.parametrize("theory", [
    pytest.param({"axioms": [], "chains": ["luk:x"]}, id="chain-size-not-an-integer"),
    pytest.param({"axioms": [], "chains": ["luk:2..y"]}, id="range-end-not-an-integer"),
    pytest.param({"axioms": [1], "chains": ["luk:2"]}, id="axiom-not-a-string"),
    pytest.param({"axioms": [], "chains": "luk:2"}, id="chains-not-a-list"),
])
def test_malformed_theory_exit_code(tmp_path, capsys, theory):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(theory))
    code, _, err = run(capsys, "lindenbaum", "--theory", str(path), "--vars", "1")
    assert code == 2
    assert err.startswith("error: ") and "bad chain 'l'" not in err


@pytest.mark.parametrize("argv", [
    ("lindenbaum", "--theory", "theory.json", "--vars", "0"),
    ("lindenbaum", "--theory", "theory.json", "--vars", "-1"),
    ("free", "--variety", "ba", "--gens", "0"),
    ("kripke", "verify", "--alpha", "0"),
    ("kripke", "verify", "--random", "-1"),
    ("kripke", "verify", "--random", "two"),
    ("kripke", "verify", "--max-worlds", "0"),
    ("kripke", "verify", "--max-base", "0"),
    ("spectrum", "godel:4", "--bound", "-1"),
    ("omit", "--alg", "luk:3", "--inside", "1", "--types", "types.json", "--bound", "0"),
    ("amalgamate", "--problem", "problem.json", "--max-size", "0"),
], ids=" ".join)
def test_out_of_range_count_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "argument --" in err


def test_zero_random_systems_is_a_pass(capsys):
    code, out, _ = run(capsys, "kripke", "verify", "--random", "0")
    assert code == 0
    assert out.startswith("0 systems verified")


def test_lindenbaum_two_variables_over_luk3_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"axioms": [], "chains": ["luk:3"]}))
    code, _, err = run(capsys, "lindenbaum", "--theory", str(path), "--vars", "2")
    assert code == 3
    assert "1173060 candidates over closure budget 1048576" in err


@pytest.mark.parametrize("argv", [
    pytest.param(("check", "luk:100000", "--class", "mv"), id="check"),
    pytest.param(("taut", "p0", "--chains", "godel:100000"), id="taut-chains"),
    pytest.param(("taut", "p0 -> p0", "--chains", "godel:2..100000"), id="taut-chain-range"),
    pytest.param(("lindenbaum", "--theory", "theory.json", "--vars", "1"), id="theory-chains"),
])
def test_chain_over_budget_exit_code(tmp_path, capsys, monkeypatch, argv):
    """A chain over the chain budget exits 3 before any table is built."""
    monkeypatch.delenv("RESLAT_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theory.json").write_text(json.dumps({"axioms": [], "chains": ["luk:100000"]}))
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "chain of 100000 elements over budget 1024" in err


@pytest.mark.parametrize("name", ["luk:+3", "luk:", "luk:1", "prod:3", "luk: 3", "luk:\u0663"])
def test_bad_chain_name_exit_code(capsys, name):
    """check and taut read one chain-name grammar: text that is no chain
    name, or names a chain of fewer than two elements, exits 2 from both."""
    for argv in (("check", name, "--class", "mv"), ("taut", "p0", "--chains", name)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_chain_too_small_is_reported_as_such(capsys):
    for argv in (("check", "luk:1", "--class", "mv"), ("taut", "p0", "--chains", "luk:1")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: chain size must be >= 2\n"


def test_check_refuses_a_chain_range(capsys):
    code, _, err = run(capsys, "check", "luk:2..4", "--class", "mv")
    assert code == 2
    assert err == "error: bad chain 'luk:2..4'\n"


@pytest.mark.parametrize("name", [
    "luk:3", "lukasiewicz:3", "LUK:3", "builtin:Lukasiewicz:3", "godel:3", "builtin:godel:3", "GoDeL:03"
])
def test_chain_names_read_alike_by_check_and_taut(capsys, name):
    """Every chain name check accepts, taut accepts too, for the same chain."""
    code, out, _ = run(capsys, "--json", "check", name, "--class", "mv")
    assert code in (0, 1)
    chain = json.loads(out)["algebra"]
    code, out, _ = run(capsys, "--json", "taut", "p0 \\/ ~p0", "--chains", name)
    assert code == 1
    assert json.loads(out)["counterexample"]["chain"] == chain


def _resource_cases():
    from reslat import amalgam, free, kripke, logic, sheaf, spectra
    from reslat.algebra import ChainSpec, make_chain, product
    from reslat.budgets import Budget

    ba4 = free.free_algebra(free.boolean_variety(), 1).algebra
    system = kripke.random_kripke(0, 3, 3, 3)[1].system
    cases = [
        ("sheaf.sections", 1,
         lambda: sheaf.sections(sheaf.dual_sheaf(ba4), budget=Budget(sections=1))),
        ("kripke.set_algebra", 1,
         lambda: kripke.set_algebra(system, budget=Budget(kripke_universe=1))),
        ("spectra.prime_lattice_filters", 2, lambda: spectra.prime_lattice_filters(ba4, bound=2)),
        ("amalgam.enumerate_ideals", 2, lambda: amalgam.enumerate_ideals(ba4, bound=2)),
        ("amalgam.all_congruences", 20,
         lambda: amalgam.all_congruences(product([ba4] * 3), budget=Budget())),
        ("free.free_algebra", 10,
         lambda: free.free_algebra(free.boolean_variety(), 3, budget=Budget(closure=10))),
        ("logic.lindenbaum", 10,
         lambda: logic.lindenbaum(
             logic.Theory((), (ChainSpec("lukasiewicz", 3),)), 1, budget=Budget(closure=10)
         )),
        ("algebra.make_chain", 4,
         lambda: make_chain(ChainSpec("lukasiewicz", 5), budget=Budget(chain=4))),
        ("logic.parse_chain_list", 1024, lambda: logic.parse_chain_list("godel:2..2000")),
    ]
    return [pytest.param(limit, call, id=name) for name, limit, call in cases]


@pytest.mark.parametrize("limit, call", _resource_cases())
def test_resource_error_states_used_count_and_limit(limit, call):
    from reslat.errors import ResourceError

    with pytest.raises(ResourceError) as exc:
        call()
    unquoted = re.sub(r"'[^']*'", "", str(exc.value))  # drop algebra names
    numbers = [int(x) for x in re.findall(r"\d+", unquoted)]
    assert limit in numbers, str(exc.value)
    assert any(x > limit for x in numbers), str(exc.value)


def test_float_table_entry_exit_code(tmp_path, capsys):
    from reslat.algebra import ChainSpec, make_chain

    data = make_chain(ChainSpec("lukasiewicz", 3)).to_json()
    data["ops"]["imp"][0][1] = 1.7
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "check", str(path), "--class", "mv")
    assert code == 2
    assert "non-integer" in err


GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


GOLDEN_CASES = [
    ("kripke", "kripke verify --random 20 --seed 0 --max-worlds 3 --max-base 3 --alpha 3", 0),
    # assignments over the edges of the path 0-1-2: not a full function
    # space, and the cylindrifiers do not commute
    ("kripke-system-path", "kripke verify --system {data}/kripke-path.json", 1),
    ("sheaf", "sheaf luk:3 --eta --regularity", 0),
    # five points, so the section search skips the covered ones; and a
    # closure operator, so Zd is not the whole algebra (criterion 8)
    ("sheaf-luk4-x-godel3", "sheaf {data}/luk4-x-godel3.json --eta --regularity", 0),
    ("sheaf-coordinate-closure", "sheaf {data}/coordinate-closure.json --eta --regularity", 0),
    ("free", "free --variety ba --gens 2 --atoms --decompose-check", 0),
    ("check-luk3-mv", "check luk:3 --class mv", 0),
    ("check-godel3-mv", "check godel:3 --class mv", 1),
    ("taut-prelinearity", "taut (p0->p1)\\/(p1->p0) --chains luk:2..6,godel:2..6", 0),
    ("taut-excluded-middle", "taut p0\\/~p0 --chains luk:3", 1),
    ("spectrum-godel4", "spectrum godel:4 --verify-lemma", 0),
    # excluded middle on the Goedel chains of 2..4 elements
    ("lindenbaum-godel-em", "lindenbaum --theory {data}/theory-godel-em.json --vars 2", 0),
    # the README's omit, interp and amalgamate examples, on Fr_2 over BA
    # (a dumped Fr_3 is 4.9 MB) and on two BA_4 over the two-element chain
    ("omit-fr2", "omit --alg {data}/fr2.json --inside g0 --types {data}/types-fr2.json", 0),
    ("omit-fr2-excluded", "omit --alg {data}/fr2.json --inside g0 --types {data}/types-fr2-all.json", 1),
    ("interp-fr2", "interp --alg {data}/fr2.json --x g0/\\g1 --z g1 --x1 g0,g1 --x2 g1", 0),
    ("amalgamate-ba4", "amalgamate --problem {data}/problem-ba4.json --max-size 16 --super", 0),
]


@pytest.mark.parametrize(
    "name, argv, exit_code", GOLDEN_CASES, ids=["%s-%s" % case[:2] for case in GOLDEN_CASES]
)
def test_golden_json_output(capsys, name, argv, exit_code):
    """The --json bytes and exit codes of these verbs, the README examples
    among them, are pinned to the files in golden/."""
    code, out, _ = run(capsys, "--json", *(arg.format(data=DATA) for arg in argv.split()))
    assert code == exit_code
    assert out == (GOLDEN / (name + ".json")).read_text()


@pytest.mark.parametrize("argv, env", [
    ("--json lindenbaum --theory {data}/theory-godel-em.json --vars 2", {}),
    # the error report that --json also writes on stdout
    ("--json spectrum godel:4", {"RESLAT_BUDGET": "spectrum=2"}),
], ids=["report", "error-report"])
def test_closed_stdout_exits_141_without_a_traceback(argv, env):
    """A reader that closes the pipe before the report is written gets the
    documented exit code and a quiet stderr, not a BrokenPipeError."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reslat.cli", *argv.format(data=DATA).split()],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, **env, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


# ---- malformed input files ----------------------------------------------------


def data_file(name):
    return json.loads((DATA / name).read_text())


@pytest.mark.parametrize("side", ["A", "B"])
def test_amalgam_problem_whose_side_lacks_an_op_of_c_exit_code(tmp_path, capsys, side):
    data = data_file("problem-ba4.json")
    del data[side]["ops"]["neg"]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "amalgamate", "--problem", str(path))
    assert code == 2
    assert err == "error: %s: A, B and C must have one signature: %s lacks neg/1\n" % (path, side)


def test_check_of_an_algebra_file_reports_its_name(capsys):
    path = DATA / "luk4-x-godel3.json"
    code, out, _ = run(capsys, "--json", "check", str(path), "--class", "mv")
    assert code == 1
    assert json.loads(out)["algebra"] == data_file("luk4-x-godel3.json")["name"] == "luk:4#core x godel:3#core"


def test_amalgam_problem_with_a_name_that_is_no_string_exit_code(tmp_path, capsys):
    data = data_file("problem-ba4.json")
    data["A"]["name"] = 7
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "amalgamate", "--problem", str(path))
    assert code == 2
    assert err == "error: %s: name must be a string, not 7\n" % path


def test_sheaf_of_an_algebra_file_with_a_name_that_is_no_string_exit_code(tmp_path, capsys):
    data = data_file("luk4-x-godel3.json")
    data["name"] = 7
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "sheaf", str(path))
    assert code == 2
    assert err == "error: %s: name must be a string, not 7\n" % path


FUZZ_RUNS = [
    ("luk4-x-godel3.json", "sheaf {} --eta --regularity"),
    ("coordinate-closure.json", "sheaf {} --eta --regularity"),
    ("fr2.json", "spectrum {} --verify-lemma"),
    ("luk4-x-godel3.json", "check {} --class mv"),
    ("coordinate-closure.json", "check {} --class bl"),
    ("problem-ba4.json", "amalgamate --problem {} --max-size 16 --super"),
    ("kripke-path.json", "kripke verify --system {}"),
    ("theory-godel-em.json", "lindenbaum --theory {} --vars 1"),
    ("types-fr2.json", "omit --alg %s --inside g0 --types {}" % (DATA / "fr2.json")),
]
ODD_VALUES = [None, True, -1, 7, 2**40, 1.5, "x", [], {}, [[]]]


@st.composite
def mutated_input(draw):
    """A verb and one of its files under data/ with one node changed: the
    path walks down from the root and stops at each node with even odds;
    the node there is replaced by an odd value or deleted, which deletes a
    key or drops a list entry."""
    name, argv = draw(st.sampled_from(FUZZ_RUNS))
    data = data_file(name)
    parent, key, node = None, None, data
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if draw(st.booleans()):
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    else:
        del parent[key]
    return argv, data


@seed(20131001)
@settings(max_examples=200, database=None, deadline=None, suppress_health_check=list(HealthCheck))
@given(case=mutated_input())
def test_mutated_input_files_exit_by_the_contract(tmp_path_factory, case):
    """Every run on a mutated input file exits 0-3 with no traceback."""
    argv, data = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.format(path).split())
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
