"""Command-line surface: deterministic, scriptable access to the workbench.

Exit codes: 0 pass / witness found; 1 counterexample or nothing found
(with a machine-checkable witness in the report); 2 usage errors;
3 resource bound exceeded; 141 (128 + SIGPIPE) when the reader closed
stdout before the report was written.
"""

import argparse
import json
import os
import sys

from .algebra import check_class_axioms, load_algebra, load_json
from .errors import (
    DomainError,
    InvalidSpecError,
    NoGenericPointError,
    ReslatError,
    ResourceError,
)

EXIT_PASS = 0
EXIT_COUNTER = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


def _emit(args, payload, human):
    if getattr(args, "json", False):
        payload = dict(payload)
        payload.setdefault("format", "reslat/1")
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(human)


def _fail(args, code, prefix, exc):
    """Report an error on stderr, and in --json mode as a report on stdout."""
    print("%s: %s" % (prefix, exc), file=sys.stderr)
    if args.json:
        _emit(args, {"error": str(exc)}, None)
    return code


def _element_env(alg):
    env = {}
    for i in range(alg.size):
        env[alg.label(i)] = i
        env["e%d" % i] = i
    return env


def eval_element_expr(alg, text):
    """Formula syntax over element names: & -> star, /\\ meet, \\/ join,
    -> imp, ~x = x -> 0; identifiers name elements by label or e<k>."""
    from .logic import eval_formula, parse

    formula = parse(text)
    try:
        return eval_formula(formula, alg, _element_env(alg))
    except DomainError as exc:  # the only one eval_formula raises on parsed input
        raise ReslatError(str(exc).replace("unbound variable", "unknown element")) from None


def _element_list(alg, text):
    return [alg.element_index(piece.strip()) for piece in text.split(",") if piece.strip()]


# ---------------------------------------------------------------------------


def cmd_check(args):
    alg = load_algebra(args.algebra)
    report = check_class_axioms(alg, args.cls)
    witness = [
        {"axiom": aid, "witness": [alg.label(x) for x in w]}
        for aid, w in report.violations
    ]
    _emit(
        args,
        {"algebra": alg.name, "class": args.cls, "passed": report.passed, "violations": witness},
        "%s: class %s %s%s"
        % (
            alg.name,
            args.cls,
            "passed" if report.passed else "FAILED",
            "" if report.passed else " " + json.dumps(witness),
        ),
    )
    return EXIT_PASS if report.passed else EXIT_COUNTER


def cmd_spectrum(args):
    from .spectra import verify_dm_lemma, zariski_sets

    alg = load_algebra(args.algebra)
    space = zariski_sets(alg, bound=args.bound)
    payload = space.report()
    lines = ["%s: %d prime, %d maximal filters" % (alg.name, len(space.prime_points), len(space.max_points))]
    code = EXIT_PASS
    if args.max_only:
        payload["points"] = [p for p in payload["points"] if p["maximal"]]
    if args.verify_lemma:
        rep = verify_dm_lemma(alg, space=space, bound=args.bound)
        payload["lemma"] = {"passed": rep.passed, "violations": rep.violations}
        lines.append("dm-lemma: %s" % ("passed" if rep.passed else "FAILED %s" % rep.violations))
        if not rep.passed:
            code = EXIT_COUNTER
    _emit(args, payload, "\n".join(lines))
    return code


def cmd_free(args):
    from .free import (
        atoms,
        boolean_variety,
        distributive_lattice_variety,
        free_algebra,
        free_product_decomposition_check,
        VarietySpec,
    )

    if args.variety == "ba":
        variety = boolean_variety()
    elif args.variety == "dl":
        variety = distributive_lattice_variety()
    else:
        gens = tuple(load_algebra(p) for p in args.variety.split(","))
        variety = VarietySpec(gens)
    fr = free_algebra(variety, args.gens)
    payload = fr.report()
    lines = ["|Fr_%d| = %d" % (args.gens, fr.size)]
    if args.atoms:
        payload["atoms"] = atoms(fr.algebra)
        lines.append("atoms: %d" % len(payload["atoms"]))
    code = EXIT_PASS
    if args.decompose_check:
        ok, _ = free_product_decomposition_check(variety, args.gens)
        payload["product_decomposition"] = ok
        lines.append("Fr_n x Fr_n ~= Fr_{n+1}: %s" % ok)
        if not ok:
            code = EXIT_COUNTER
    _emit(args, payload, "\n".join(lines))
    return code


def cmd_taut(args):
    from .logic import is_tautology, parse, parse_chain_list

    formula = parse(args.formula)
    chains = parse_chain_list(args.chains)
    ok, counter = is_tautology(formula, chains)
    payload = {"formula": args.formula, "tautology": ok}
    if not ok:
        payload["counterexample"] = {"chain": counter[0], "valuation": counter[1]}
    _emit(
        args,
        payload,
        "tautology" if ok else "counterexample on %s at %s" % counter,
    )
    return EXIT_PASS if ok else EXIT_COUNTER


def cmd_lindenbaum(args):
    from .logic import Theory, lindenbaum

    theory = load_json(args.theory, Theory.from_json)
    lind = lindenbaum(theory, args.vars)
    payload = {
        "classes": lind.algebra.size,
        "representatives": [str(r) for r in lind.reps],
        "generators": list(lind.generator_classes),
    }
    _emit(args, payload, "lindenbaum algebra: %d classes" % lind.algebra.size)
    return EXIT_PASS


def cmd_interp(args):
    from .amalgam import interpolant_search

    alg = load_algebra(args.alg)
    x = eval_element_expr(alg, args.x)
    z = eval_element_expr(alg, args.z)
    x1 = _element_list(alg, args.x1)
    x2 = _element_list(alg, args.x2)
    found = interpolant_search(alg, x1, x2, x, z)
    if found is None:
        _emit(args, {"interpolant": None}, "no interpolant within the power bound")
        return EXIT_COUNTER
    y, n = found
    _emit(
        args,
        {"interpolant": alg.label(y), "power": n},
        "interpolant: %s (power %d)" % (alg.label(y), n),
    )
    return EXIT_PASS


def cmd_amalgamate(args):
    from .algebra import FiniteAlgebra
    from .amalgam import AmalgamProblem, amalgamate, superamalgam_check

    def build(data):
        algs = [FiniteAlgebra.from_json(data[k]) for k in "ABC"]
        maps = data["m"], data["n"]
        if not all(isinstance(images, list) for images in maps):
            raise InvalidSpecError('"m" and "n" must be lists of elements of C')
        problem = AmalgamProblem(*algs, *map(tuple, maps), args.max_size)
        problem.validate()  # here, so that a failed precondition names the file
        return problem

    problem = load_json(args.problem, build)
    result = amalgamate(problem, require_super=args.super_check)
    if result is None:
        _emit(args, {"amalgam": None}, "none within bound")
        return EXIT_COUNTER
    d, k, h = result
    payload = {
        "amalgam_size": d.size,
        "k": list(k),
        "h": list(h),
        "super": superamalgam_check(problem, d, k, h),
    }
    _emit(args, payload, "amalgam found, |D| = %d (super: %s)" % (d.size, payload["super"]))
    return EXIT_PASS


def cmd_kripke(args):
    from .kripke import KripkeSystem, random_kripke, set_algebra, verify_kripke

    if args.action != "verify":
        raise ReslatError("unknown kripke action %r" % args.action)

    def verify_one(ksa, tag):
        out = []
        for suite, passed, detail in verify_kripke(ksa):
            if passed:
                continue
            entry = {**tag, "suite": "-".join(map(str, suite))}
            if suite[0] in ("derived", "gpha"):
                entry["violations"] = detail[:3]
            elif suite[0] == "diagonals":
                entry["witness"] = detail
            out.append(entry)
        return out

    if args.system is not None:
        system = KripkeSystem.load(args.system)
        count = 1
        failures = verify_one(set_algebra(system, with_diagonals=True), {})
    else:
        count = args.random
        failures = [
            item
            for seed in range(args.seed, args.seed + count)
            for item in verify_one(
                random_kripke(seed, args.max_worlds, args.max_base, args.alpha)[1], {"seed": seed}
            )
        ]
    payload = {"systems": count, "failures": failures}
    _emit(
        args,
        payload,
        "%d systems verified, %d failures" % (count, len(failures)),
    )
    return EXIT_PASS if not failures else EXIT_COUNTER


def cmd_sheaf(args):
    from .sheaf import report

    alg = load_algebra(args.algebra)
    try:
        payload = report(alg, with_eta=args.eta, with_regularity=args.regularity)
    except ResourceError as exc:  # name the input, not only the reduct the bound met
        exc.args = ("%s: %s" % (args.algebra, exc),)
        raise
    lines = [
        "%s: %d base points, stalks %s, %d sections"
        % (
            alg.name,
            len(payload["base_points"]),
            payload["stalk_sizes"],
            payload["section_count"],
        )
    ]
    code = EXIT_PASS
    if args.eta:
        lines.append("eta isomorphism: %s" % payload["eta_isomorphism"])
        if not payload["eta_isomorphism"]:
            code = EXIT_COUNTER
    if args.regularity:
        lines.append("regularity: %s" % payload["regularity"])
    _emit(args, payload, "\n".join(lines))
    return code


def _types_of(data):
    """The "types" of a types file: a list of lists of element expressions."""
    types = data["types"]
    if not isinstance(types, list) or not all(
        isinstance(entry, list) and all(isinstance(text, str) for text in entry)
        for entry in types
    ):
        raise InvalidSpecError('"types" must be a list of lists of element expressions')
    return types


def cmd_omit(args):
    from .logic import _generic_among, non_principal_certify
    from .spectra import enumerate_filters

    alg = load_algebra(args.alg)
    inside = eval_element_expr(alg, args.inside)
    families = [
        [eval_element_expr(alg, text) for text in entry]
        for entry in load_json(args.types, _types_of)
    ]
    certified = [non_principal_certify(alg, fam) for fam in families]
    maxes = enumerate_filters(alg, "maximal", bound=args.bound)
    avoid = [[f for f in maxes if f.members.issuperset(fam)] for fam in families]  # V_M(fam)
    try:
        flt = _generic_among(alg, maxes, inside, avoid)
    except NoGenericPointError as exc:
        _emit(
            args,
            {"generic": None, "certified": certified, "obstruction": str(exc)},
            "no generic point: %s" % exc,
        )
        return EXIT_COUNTER
    payload = {
        "generic": [alg.label(x) for x in flt.sorted_members()],
        "certified_non_principal": certified,
    }
    _emit(args, payload, "generic filter: %s" % payload["generic"])
    return EXIT_PASS


def cmd_corpus(args):
    from .corpus import run_all

    if args.action != "run":
        raise ReslatError("unknown corpus action %r" % args.action)
    results = run_all()
    return EXIT_PASS if all(r["passed"] for r in results) else EXIT_COUNTER


def _count(least):
    """argparse type: an integer that is at least `least`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < least:
            raise argparse.ArgumentTypeError("must be at least %d, not %d" % (least, value))
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reslat",
        description="finite-scale workbench for residuated lattices and their logics",
    )
    parser.add_argument("--json", action="store_true", help="JSON reports on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="class axiom suite")
    p.add_argument("algebra", help="luk:N, godel:N, builtin:..., or a JSON file")
    p.add_argument("--class", dest="cls", required=True,
                   choices=["residuated-lattice", "bl", "mv", "heyting", "boolean"])
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("spectrum", help="prime/maximal spectra and Zariski sets")
    p.add_argument("algebra")
    p.add_argument("--max", dest="max_only", action="store_true")
    p.add_argument("--verify-lemma", action="store_true")
    p.add_argument("--bound", type=_count(1), default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("free", help="free algebra over a finitely generated variety")
    p.add_argument("--variety", required=True, help="'ba', 'dl', or comma list of files")
    p.add_argument("--gens", type=_count(1), required=True)
    p.add_argument("--atoms", action="store_true")
    p.add_argument("--decompose-check", action="store_true")
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("taut", help="exhaustive tautology check over chains")
    p.add_argument("formula")
    p.add_argument("--chains", required=True, help="e.g. luk:2..6,godel:3")
    p.set_defaults(fn=cmd_taut)

    p = sub.add_parser("lindenbaum", help="finite-chain Lindenbaum algebra")
    p.add_argument("--theory", required=True, help="JSON file {axioms, chains}")
    p.add_argument("--vars", type=_count(1), required=True)
    p.set_defaults(fn=cmd_lindenbaum)

    p = sub.add_parser("interp", help="interpolant search")
    p.add_argument("--alg", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--x1", required=True, help="comma list of elements")
    p.add_argument("--x2", required=True)
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("amalgamate", help="amalgam search from a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--max-size", type=_count(1), default=None,
                   help="largest amalgam; default the amalgam_size budget")
    p.add_argument("--super", dest="super_check", action="store_true")
    p.set_defaults(fn=cmd_amalgamate)

    p = sub.add_parser("kripke", help="Kripke set algebra verification")
    p.add_argument("action", choices=["verify"])
    source = p.add_mutually_exclusive_group()
    source.add_argument("--random", type=_count(0), default=10, help="seeded random systems")
    source.add_argument("--system", help="a Kripke-system JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-worlds", type=_count(1), default=3)
    p.add_argument("--max-base", type=_count(1), default=3)
    p.add_argument("--alpha", type=_count(1), default=3)
    p.set_defaults(fn=cmd_kripke)

    p = sub.add_parser("sheaf", help="dual sheaf report")
    p.add_argument("algebra")
    p.add_argument("--eta", action="store_true")
    p.add_argument("--regularity", action="store_true")
    p.set_defaults(fn=cmd_sheaf)

    p = sub.add_parser("omit", help="generic filter avoiding type families")
    p.add_argument("--alg", required=True)
    p.add_argument("--inside", required=True)
    p.add_argument("--types", required=True, help="JSON file {types: [[exprs]]}")
    p.add_argument("--bound", type=_count(1), default=64)
    p.set_defaults(fn=cmd_omit)

    p = sub.add_parser("corpus", help="acceptance corpus")
    p.add_argument("action", choices=["run"])
    p.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        try:
            code = args.fn(args)
        except ResourceError as exc:
            code = _fail(args, EXIT_RESOURCE, "resource bound", exc)
        except (ReslatError, FileNotFoundError) as exc:
            code = _fail(args, EXIT_USAGE, "error", exc)
        sys.stdout.flush()
    except BrokenPipeError:
        # the "Note on SIGPIPE" of the signal module: what is left in the
        # buffer goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
