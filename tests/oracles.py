"""Pure-Python reference implementations kept as differential-test oracles.

Two are no library code's loop form: `residuum_oracle`, the descending
scan that the chains' imp tables and `algebra.residuum_closed_form` are
checked against, and `dimension_set`, the per-index cylindrifier test
that `kripke.neat_reduct` reads in bulk from `FiniteAlgebra.moved`.
The others are the per-entry loops the vectorized table core replaced: the
mask-loop table builder of `kripke.set_algebra`, the per-tuple checker
of `algebra.check_class_axioms`, the tuple-keyed `algebra.product`, the
join closure of `amalgam.all_congruences`, and the table loops
of `amalgam.quotient`, `free.relativize`, `kripke.neat_reduct` and
`kripke.mutate_table` that `FiniteAlgebra.restrict` replaced.  Two
more are what the vector closure of `free.free_algebra` replaced: the
tuple-vector, pair-loop `lindenbaum` (with its one-`eval_formula`-per-
coordinate `_representatives`), and `projection_map`, which recovers a
coordinate projection of a free algebra by walking its tables.  Then
come the recursive scalar `eval_formula` and the per-valuation
`is_tautology` and `consequence` over it, which the grid evaluation of
`reslat.logic` through `algebra._evaluate` replaced; the oracle
`lindenbaum` evaluates through this copy.  The next group is what
principal closed sets replaced: the DFS of `enumerate_closed` (with
`closed_sets`, a scan of every subset that stays complete where `meet`
is not a partial order and the DFS misses sets), the pair loops of
`is_prime_filter` and `prime_ideals_of`, the union-find
stalk congruence and the frozenset `verify_dm_lemma`.  Last come the
loop bodies of the Kripke suites `verify_derived_identities`,
`verify_gpha_axioms` and `verify_heyting_quantifiers`, one
`np.array_equal` per identity instance, and `verify_kripke` over them.
The last group is what the closures on integer keys replaced: the
per-element loops of `subalgebra_generate` and of `homomorphisms` (with
its per-level domains and the `_close_map` map closure), the entry
loop of `first_hom_failure` that the table comparison of
`algebra.first_hom_failure` replaced, and `free_algebra` over
big-endian void row keys.  Last of all come the
scalar loops that array reads of the table stacks replaced: the
`alg.leq` walk of `generate_closed`, the per-entry union-find of
`amalgam.congruence_closure` and the tuple lookups of
`sheaf.section_algebra`.  Then the per-pair `alg.leq` loops that row
and column reads of `FiniteAlgebra.order` replaced: `is_filter` and
`is_ideal` (the loop forms of a set being its own `generate_filter` or
`ideal_generate`), `ideal_join_characterize`, `superamalgam_check`,
`interpolant_search`, `discriminator_check`, `is_relatively_complemented`,
`atoms`, `is_atomic`, `hereditary_closed`, `isolated_dense_check`,
`join_of_atoms_is_one` and `upset`.  Last come two checks that a
shorter argument replaced: `is_freely_generated_by`, one homomorphism
search per valuation, where the universal property of the free
generators now answers, and `nowhere_dense_check` over every
decomposition of 2 and 3 parts, which the pair check of
`spectra.nowhere_dense_check` covers.  Then the two congruence questions
that one congruence stopped listing the lattice for: the candidate
search of `amalgam.cp_extend`, and the maximal-congruence scan of
`sheaf.regularity`'s congruence clause.  `table` hands every loop here the
nested-list form of a table.
Tests compare the library against them on every input they generate.
"""

from functools import partial
from itertools import combinations
from itertools import product as iproduct

import numpy as np

from reslat import budgets
from reslat.algebra import CORE_OPS, AxiomReport, FiniteAlgebra, Signature, make_chain
from reslat.amalgam import (
    _union_find,
    congruence_blocks,
    ideal_congruence,
    ideal_generate,
    partition_leq,
    principal_congruence,
)
from reslat.errors import (
    ClosureError,
    DomainError,
    InternalError,
    InvalidSpecError,
    PreconditionError,
    ResourceError,
    SignatureError,
)
from reslat.kripke import (
    SemigroupG,
    _tau_name,
    compose,
    cylinder_indices,
    replacement,
    verify_diagonal_equivalence_shadow,
)
from reslat.logic import Bin, Konst, Neg, Var, type_space, variables
from reslat.spectra import generate_filter


def additive(alg):
    """The additive op of an ideal, chosen here apart from the library."""
    return "oplus" if "oplus" in alg.signature else "join"


def dimension_set(alg, x):
    """Delta x = indices whose cylindrifier moves x, one entry read per
    index: the loop form of the `FiniteAlgebra.moved` rows of
    `kripke.neat_reduct`."""
    return frozenset(j for j in cylinder_indices(alg) if alg.apply("c_%d" % j, x) != x)


def residuum_oracle(star_table, x, y):
    """Largest z with star(x, z) <= y, by descending scan of a chain table:
    the independent oracle for `algebra.residuum_closed_form` and for the
    imp tables of chains.  Elements are chain indices, order is index
    order, and star_table must be monotone in both arguments."""
    for z in range(len(star_table) - 1, -1, -1):
        if star_table[x][z] <= y:
            return z
    raise InternalError("no residuum witness; star(x, 0) > y should be impossible")


def table(alg, name):
    """The table of an op as nested lists of ints, a constant as an int:
    the tuple-style reference the loops below read entry by entry."""
    t = alg.tables[name]
    return t if type(t) is int else t.tolist()


def table_lists(alg):
    """Every table of `alg` by `table`, keyed by op, for `==` comparisons."""
    return {name: table(alg, name) for name in alg.tables}


def set_algebra_tables(system, G=None, with_diagonals=False, budget=None):
    """(signature ops, tables, masks) of the Kripke set algebra, one
    Python-int bitmask operation per table entry."""
    budget = budget or budgets.from_env()
    if G is None:
        G = SemigroupG.full(system.alpha)
    if system.total_assignments() > budget.kripke_assignments:
        raise ResourceError(
            "total assignment count %d over budget %d"
            % (system.total_assignments(), budget.kripke_assignments)
        )
    w = system.world_count()
    positions = []
    for k in range(w):
        for v in system.assignments[k]:
            positions.append((k, v))
    positions = tuple(positions)
    pidx = {p: i for i, p in enumerate(positions)}
    npos = len(positions)

    for k in range(w):
        vset = set(system.assignments[k])
        for tau in G:
            for v in system.assignments[k]:
                moved = tuple(v[tau[i]] for i in range(system.alpha))
                if moved not in vset:
                    raise ClosureError(k, v, tau)

    columns = {}
    for i, (k, v) in enumerate(positions):
        columns.setdefault(v, []).append((k, i))
    col_choices = []
    total = 1
    for v in sorted(columns):
        entries = columns[v]
        ws = [k for k, _ in entries]
        opts = []
        for bits in iproduct((0, 1), repeat=len(entries)):
            ok = True
            for a in range(len(entries)):
                for b in range(len(entries)):
                    if system.leq[ws[a]][ws[b]] and bits[a] > bits[b]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                mask = 0
                for bit, (_, pos) in zip(bits, entries):
                    mask |= bit << pos
                opts.append(mask)
        col_choices.append(opts)
        total *= len(opts)
        if total > budget.kripke_universe:
            raise ResourceError(
                "set-algebra universe of at least %d elements over budget %d"
                % (total, budget.kripke_universe)
            )
    masks = sorted(sum(parts) for parts in iproduct(*col_choices))
    midx = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    full = (1 << npos) - 1

    fut = []
    cyl = [[0] * system.alpha for _ in range(npos)]
    qm = [[0] * system.alpha for _ in range(npos)]
    for p, (k, v) in enumerate(positions):
        fmask = 0
        for p2, (l, v2) in enumerate(positions):
            if v2 == v and system.leq[k][l]:
                fmask |= 1 << p2
        fut.append(fmask)
        for j in range(system.alpha):
            cm = 0
            qmask = 0
            for p2, (l, v2) in enumerate(positions):
                agree = all(v2[i] == v[i] for i in range(system.alpha) if i != j)
                if not agree:
                    continue
                if l == k:
                    cm |= 1 << p2
                if system.leq[k][l]:
                    qmask |= 1 << p2
            cyl[p][j] = cm
            qm[p][j] = qmask

    sub_pos = {}
    for tau in G:
        table = []
        for (k, v) in positions:
            moved = tuple(v[tau[i]] for i in range(system.alpha))
            table.append(pidx[(k, moved)])
        sub_pos[tau] = table

    def imp_mask(f, g):
        bad = f & ~g & full
        out = 0
        for p in range(npos):
            if not bad & fut[p]:
                out |= 1 << p
        return out

    def c_mask(f, j):
        out = 0
        for p in range(npos):
            if f & cyl[p][j]:
                out |= 1 << p
        return out

    def q_mask(f, j):
        out = 0
        for p in range(npos):
            if not (qm[p][j] & ~f & full):
                out |= 1 << p
        return out

    def s_mask(f, tau):
        t = sub_pos[tau]
        out = 0
        for p in range(npos):
            if (f >> t[p]) & 1:
                out |= 1 << p
        return out

    sig = list(CORE_OPS)
    tables = {
        "join": [[midx[masks[a] | masks[b]] for b in range(n)] for a in range(n)],
        "meet": [[midx[masks[a] & masks[b]] for b in range(n)] for a in range(n)],
        "imp": [[midx[imp_mask(masks[a], masks[b])] for b in range(n)] for a in range(n)],
        "zero": midx[0],
        "one": midx[full],
    }
    tables["star"] = tables["meet"]
    for j in range(system.alpha):
        sig.append(("c_%d" % j, 1))
        tables["c_%d" % j] = [midx[c_mask(masks[a], j)] for a in range(n)]
        sig.append(("q_%d" % j, 1))
        tables["q_%d" % j] = [midx[q_mask(masks[a], j)] for a in range(n)]
    for tau in G:
        sig.append((_tau_name(tau), 1))
        tables[_tau_name(tau)] = [midx[s_mask(masks[a], tau)] for a in range(n)]
    if with_diagonals:
        for i in range(system.alpha):
            for j in range(system.alpha):
                dm = 0
                for p, (k, v) in enumerate(positions):
                    if v[i] == v[j]:
                        dm |= 1 << p
                sig.append(("d_%d_%d" % (i, j), 0))
                tables["d_%d_%d" % (i, j)] = midx[dm]
    return tuple(sig), tables, masks


def _derived_mv_ops(alg):
    n = alg.size
    if "neg" in alg.signature:
        neg = table(alg, "neg")
    else:
        z = alg.zero
        neg = tuple(alg.imp(a, z) for a in range(n))
    if "odot" in alg.signature:
        odot = table(alg, "odot")
    else:
        odot = table(alg, "star")
    if "oplus" in alg.signature:
        oplus = table(alg, "oplus")
    else:
        oplus = tuple(
            tuple(neg[odot[neg[a]][neg[b]]] for b in range(n)) for a in range(n)
        )
    return oplus, odot, neg


def _axioms_for_class(alg, cls):
    """List of (axiom id, arity, predicate on element tuples)."""
    jn, mt, st, im = alg.join, alg.meet, alg.star, alg.imp
    one, zero = alg.one, alg.zero
    lattice = [
        ("join-comm", 2, lambda a, b: jn(a, b) == jn(b, a)),
        ("meet-comm", 2, lambda a, b: mt(a, b) == mt(b, a)),
        ("join-assoc", 3, lambda a, b, c: jn(a, jn(b, c)) == jn(jn(a, b), c)),
        ("meet-assoc", 3, lambda a, b, c: mt(a, mt(b, c)) == mt(mt(a, b), c)),
        ("absorb-1", 2, lambda a, b: jn(a, mt(a, b)) == a),
        ("absorb-2", 2, lambda a, b: mt(a, jn(a, b)) == a),
        ("bound-top", 1, lambda a: mt(a, one) == a),
        ("bound-bottom", 1, lambda a: jn(a, zero) == a),
    ]
    monoid = [
        ("star-comm", 2, lambda a, b: st(a, b) == st(b, a)),
        ("star-assoc", 3, lambda a, b, c: st(a, st(b, c)) == st(st(a, b), c)),
        ("star-unit", 1, lambda a: st(one, a) == a),
    ]
    adjoint = [
        (
            "adjunction",
            3,
            lambda x, y, z: (alg.leq(z, im(x, y))) == (alg.leq(st(x, z), y)),
        ),
    ]
    rl = lattice + monoid + adjoint
    if cls == "residuated-lattice":
        return rl
    if cls == "bl":
        return rl + [
            ("prelinearity", 2, lambda a, b: jn(im(a, b), im(b, a)) == one),
            ("divisibility", 2, lambda a, b: st(a, im(a, b)) == mt(a, b)),
        ]
    if cls == "heyting":
        return rl + [("star-is-meet", 2, lambda a, b: st(a, b) == mt(a, b))]
    if cls == "boolean":
        return (
            rl
            + [("star-is-meet", 2, lambda a, b: st(a, b) == mt(a, b))]
            + [("excluded-middle", 1, lambda a: jn(a, im(a, zero)) == one)]
        )
    if cls == "mv":
        op, od, ng = _derived_mv_ops(alg)

        def O(a, b):
            return op[a][b]

        def D(a, b):
            return od[a][b]

        def N(a):
            return ng[a]

        return [
            ("mv1-oplus-comm", 2, lambda a, b: O(a, b) == O(b, a)),
            ("mv1-odot-comm", 2, lambda a, b: D(a, b) == D(b, a)),
            ("mv2-oplus-assoc", 3, lambda a, b, c: O(a, O(b, c)) == O(O(a, b), c)),
            ("mv2-odot-assoc", 3, lambda a, b, c: D(a, D(b, c)) == D(D(a, b), c)),
            ("mv3-oplus-zero", 1, lambda a: O(a, zero) == a),
            ("mv3-odot-one", 1, lambda a: D(a, one) == a),
            ("mv4-oplus-one", 1, lambda a: O(a, one) == one),
            ("mv4-odot-zero", 1, lambda a: D(a, zero) == zero),
            ("mv5-oplus-neg", 1, lambda a: O(a, N(a)) == one),
            ("mv5-odot-neg", 1, lambda a: D(a, N(a)) == zero),
            ("mv6-demorgan-oplus", 2, lambda a, b: N(O(a, b)) == D(N(a), N(b))),
            ("mv6-demorgan-odot", 2, lambda a, b: N(D(a, b)) == O(N(a), N(b))),
            ("mv7-double-neg", 1, lambda a: N(N(a)) == a),
            ("mv7-neg-zero", 0, lambda: N(zero) == one),
            ("mv8-lukasiewicz", 2, lambda a, b: O(N(O(N(a), b)), b) == O(N(O(N(b), a)), a)),
        ]
    raise DomainError("unknown algebra class %r" % cls)


def check_class_axioms(alg, cls):
    """Every axiom evaluated tuple by tuple in itertools.product order;
    the first failing tuple is the axiom's witness."""
    for name in ("join", "meet", "star", "imp"):
        if name not in alg.signature:
            raise SignatureError("class check needs core op %r" % name)
    n = alg.size
    violations = []
    for aid, arity, pred in _axioms_for_class(alg, cls):
        witness = None
        for args in iproduct(range(n), repeat=arity):
            if not pred(*args):
                witness = args
                break
        if witness is not None:
            violations.append((aid, witness))
    return AxiomReport(cls, not violations, violations)


def product(algs, name=None):
    """Componentwise product; every entry looked up by its element tuple."""
    if not algs:
        raise InvalidSpecError("empty product")
    sig = algs[0].signature
    for a in algs[1:]:
        if a.signature.ops != sig.ops:
            raise SignatureError("product requires a shared signature")
    ranges = [range(a.size) for a in algs]
    elems = list(iproduct(*ranges))
    index = {e: i for i, e in enumerate(elems)}
    tables = {}
    for opname, arity in sig.ops:
        if arity == 0:
            tables[opname] = index[tuple(a.const(opname) for a in algs)]
        elif arity == 1:
            ts = [table(a, opname) for a in algs]
            tables[opname] = [
                index[tuple(t[e[i]] for i, t in enumerate(ts))] for e in elems
            ]
        else:
            ts = [table(a, opname) for a in algs]
            tables[opname] = [
                [
                    index[tuple(t[x[i]][y[i]] for i, t in enumerate(ts))]
                    for y in elems
                ]
                for x in elems
            ]
    labels = ["(" + ",".join(a.label(e[i]) for i, a in enumerate(algs)) + ")" for e in elems]
    return FiniteAlgebra(
        name or " x ".join(a.name for a in algs),
        len(elems),
        sig,
        tables,
        labels=labels,
    )


def all_congruences(alg, budget=None, bound=None):
    """Principal congruences closed under joins with principal ones, each
    join a congruence closure of the union of two congruences; every
    congruence of a finite algebra is a join of principal ones."""
    budget = budget or budgets.from_env()
    bound = bound if bound is not None else max(budget.spectrum, 20)
    if alg.size > bound:
        raise ResourceError("congruence lattice bound exceeded")
    n = alg.size
    identity = tuple(range(n))
    principals = set()
    for x in range(n):
        for y in range(x + 1, n):
            principals.add(principal_congruence(alg, x, y))
    known = {identity} | principals
    frontier = list(principals)
    while frontier:
        new = []
        for a in frontier:
            for b in principals:
                pairs = [(i, a[i]) for i in range(n)] + [(i, b[i]) for i in range(n)]
                j = congruence_closure(alg, pairs)
                if j not in known:
                    known.add(j)
                    new.append(j)
        frontier = new
    return sorted(known)


def cp_extend(pair, congruences):
    """The candidate search that one congruence closure replaced in
    `amalgam.cp_extend`: among `congruences`, every congruence of the
    algebra, the first with fewest collapsed elements, then least as a
    tuple, whose restrictions to Sg(X1) and Sg(X2) are R and S; or None."""

    def restrict(theta, sub):
        return {(x, y) for x in sub for y in sub if theta[x] == theta[y]}

    common = pair.sg12()
    if restrict(pair.r, common) != restrict(pair.s, common):
        raise PreconditionError("R and S disagree on Sg(X1 cap X2)")
    sg1, sg2 = pair.sg1(), pair.sg2()
    want_r, want_s = restrict(pair.r, sg1), restrict(pair.s, sg2)
    for theta in sorted(congruences, key=lambda t: (sum(1 for i, r in enumerate(t) if r != i), t)):
        if restrict(theta, sg1) == want_r and restrict(theta, sg2) == want_s:
            return theta
    return None


def congruence_strongly_regular(sheaf, congruences):
    """The congruence clause of `sheaf.regularity` before it read the
    stalks: Co(x) of every point is maximal among the proper congruences
    of the sheaf's reduct, `congruences` being all of them."""
    proper = [t for t in congruences if len(set(t)) > 1]
    maximal = {t for t in proper if not any(t != u and partition_leq(t, u) for u in proper)}
    return all(ideal_congruence(sheaf.alg, x) in maximal for x in sheaf.points)


def quotient(alg, theta, name=None):
    """Quotient algebra and projection, one class lookup per table entry."""
    blocks = congruence_blocks(theta)
    index = {}
    for ci, block in enumerate(blocks):
        for x in block:
            index[x] = ci
    tables = {}
    for opname, ar in alg.signature.ops:
        if ar == 0:
            tables[opname] = index[alg.const(opname)]
        elif ar == 1:
            t = table(alg, opname)
            tables[opname] = [index[t[b[0]]] for b in blocks]
        else:
            t = table(alg, opname)
            tables[opname] = [
                [index[t[b[0]][c[0]]] for c in blocks] for b in blocks
            ]
    labels = ["[" + alg.label(b[0]) + "]" for b in blocks]
    q = FiniteAlgebra(
        name or alg.name + "/theta", len(blocks), alg.signature, tables, labels=labels
    )
    return q, [index[x] for x in range(alg.size)]


def relativize(alg, b):
    """Rl_b, every table entry met with b and looked up in a dict."""
    sub = [x for x in range(alg.size) if alg.leq(x, b)]
    index = {x: i for i, x in enumerate(sub)}
    tables = {}
    for opname, ar in alg.signature.ops:
        if ar == 0:
            tables[opname] = index[alg.meet(alg.const(opname), b)]
        elif ar == 1:
            t = table(alg, opname)
            tables[opname] = [index[alg.meet(t[x], b)] for x in sub]
        else:
            t = table(alg, opname)
            tables[opname] = [
                [index[alg.meet(t[x][y], b)] for y in sub] for x in sub
            ]
    labels = [alg.label(x) for x in sub]
    out = FiniteAlgebra(
        "Rl_%s(%s)" % (alg.label(b), alg.name),
        len(sub),
        alg.signature,
        tables,
        labels=labels,
    )
    out.embedding = tuple(sub)
    return out


def neat_reduct(alg, J):
    """Nr_J, each entry checked against the candidate set in turn."""
    J = frozenset(J)
    sub = [x for x in range(alg.size) if dimension_set(alg, x) <= J]
    index = {x: i for i, x in enumerate(sub)}
    keep = []
    for name, ar in alg.signature.ops:
        if name in ("join", "meet", "star", "imp", "zero", "one"):
            keep.append((name, ar))
        elif name.startswith(("c_", "q_")) and name[2:].isdigit():
            if int(name[2:]) in J:
                keep.append((name, ar))
        elif name.startswith("s_"):
            tau = tuple(int(ch) for ch in name[2:])
            fixes_outside = all(tau[i] == i for i in range(len(tau)) if i not in J)
            maps_into = all(tau[i] in J for i in J if i < len(tau))
            if fixes_outside and maps_into:
                keep.append((name, ar))
        elif name.startswith("d_"):
            i, j = (int(p) for p in name[2:].split("_"))
            if i in J and j in J:
                keep.append((name, ar))
    tables = {}
    for name, ar in keep:
        if ar == 0:
            v = alg.const(name)
            if v not in index:
                return None, (name, ())
            tables[name] = index[v]
        elif ar == 1:
            t = table(alg, name)
            col = []
            for x in sub:
                if t[x] not in index:
                    return None, (name, (x,))
                col.append(index[t[x]])
            tables[name] = col
        else:
            t = table(alg, name)
            rows = []
            for x in sub:
                row = []
                for y in sub:
                    if t[x][y] not in index:
                        return None, (name, (x, y))
                    row.append(index[t[x][y]])
                rows.append(row)
            tables[name] = rows
    reduct = FiniteAlgebra(
        alg.name + "|Nr_%s" % sorted(J),
        len(sub),
        Signature(tuple(keep)),
        tables,
        labels=[alg.label(x) for x in sub],
    )
    reduct.embedding = tuple(sub)
    return reduct, None


def mutate_table(alg, opname, position, new_value):
    """Copy of the algebra with one entry replaced, every table rebuilt."""
    tables = {}
    for name, ar in alg.signature.ops:
        t = table(alg, name)
        if name != opname:
            tables[name] = t
            continue
        if ar == 0:
            tables[name] = new_value
        elif ar == 1:
            lst = list(t)
            lst[position[0]] = new_value
            tables[name] = lst
        else:
            rows = [list(r) for r in t]
            rows[position[0]][position[1]] = new_value
            tables[name] = rows
    return FiniteAlgebra(alg.name + "#fault", alg.size, alg.signature, tables, labels=alg.labels)


def eval_formula(f, chain, valuation):
    """Recursive scalar evaluation, one table lookup per connective."""
    if isinstance(f, Var):
        if f.name not in valuation:
            raise DomainError("unbound variable %r" % f.name)
        return valuation[f.name]
    if isinstance(f, Konst):
        return chain.zero if f.value == 0 else chain.one
    if isinstance(f, Neg):
        return chain.imp(eval_formula(f.sub, chain, valuation), chain.zero)
    a = eval_formula(f.left, chain, valuation)
    b = eval_formula(f.right, chain, valuation)
    if f.op == "&":
        return chain.star(a, b)
    if f.op == "->":
        return chain.imp(a, b)
    if f.op == "/\\":
        return chain.meet(a, b)
    if f.op == "\\/":
        return chain.join(a, b)
    if f.op == "<->":
        return chain.star(chain.imp(a, b), chain.imp(b, a))
    raise DomainError("unknown connective %r" % f.op)


def _valuations(chain, names):
    for vals in iproduct(range(chain.size), repeat=len(names)):
        yield dict(zip(names, vals))


def is_tautology(formula, chain_specs):
    """(True, None) or (False, (chain spec, counter-valuation)), one
    `eval_formula` per valuation."""
    names = sorted(variables(formula))
    for spec in chain_specs:
        chain = make_chain(spec)
        for val in _valuations(chain, names):
            if eval_formula(formula, chain, val) != chain.one:
                pretty = {k: chain.label(v) for k, v in val.items()}
                return False, (str(spec), pretty)
    return True, None


def consequence(theory, formula):
    """Semantic consequence, one `eval_formula` per axiom and valuation."""
    names = sorted(
        set().union(variables(formula), *[variables(a) for a in theory.axioms])
    )
    for spec in theory.semantics:
        chain = make_chain(spec)
        for val in _valuations(chain, names):
            if any(
                eval_formula(a, chain, val) != chain.one for a in theory.axioms
            ):
                continue
            if eval_formula(formula, chain, val) != chain.one:
                pretty = {k: chain.label(v) for k, v in val.items()}
                return False, (str(spec), pretty)
    return True, None


class Lindenbaum:
    """What the old `lindenbaum` returned: the algebra, the class value
    vectors, representatives, generator classes and `class_of`."""

    def __init__(self, algebra, vectors, reps, generator_classes, coords, index):
        self.algebra = algebra
        self.vectors = vectors
        self.reps = reps
        self.generator_classes = generator_classes
        self._coords = coords
        self._index = index

    def class_of(self, formula):
        return self._index[_value_vector(formula, self._coords)]


def _value_vector(formula, coords):
    return tuple(eval_formula(formula, chain, val) for chain, val in coords)


def lindenbaum(theory, n, budget=None):
    """Lindenbaum algebra by closing tuple value vectors pair by pair over
    the satisfying (chain, valuation) pairs; one `eval_formula` per
    coordinate for every representative candidate."""
    budget = budget or budgets.from_env()
    chains = [make_chain(s) for s in theory.semantics]
    names = ["p%d" % i for i in range(n)]
    coords = []
    for chain in chains:
        for val in _valuations(chain, names):
            if all(
                eval_formula(a, chain, val) == chain.one for a in theory.axioms
            ):
                coords.append((chain, val))
    if not coords:
        raise InvalidSpecError("theory has no satisfying valuations on its chains")
    ops = ("join", "meet", "star", "imp")

    def vec_op(name, *vecs):
        return tuple(
            coords[i][0].apply(name, *[v[i] for v in vecs])
            for i in range(len(coords))
        )

    zero_vec = tuple(c.zero for c, _ in coords)
    one_vec = tuple(c.one for c, _ in coords)
    gen_vecs = [
        tuple(val[nm] for _, val in coords) for nm in names
    ]
    universe = {}
    order = []

    def add(v):
        if v not in universe:
            if len(universe) >= budget.closure:
                raise ResourceError("Lindenbaum closure budget exceeded")
            universe[v] = len(order)
            order.append(v)
            return True
        return False

    add(zero_vec)
    add(one_vec)
    for g in gen_vecs:
        add(g)
    frontier = list(order)
    known = list(order)
    while frontier:
        new = []
        for v in frontier:
            for name in ops:
                for w in known:
                    for r in (vec_op(name, v, w), vec_op(name, w, v)):
                        if add(r):
                            new.append(r)
        known.extend(new)
        frontier = new
    final = sorted(order)
    index = {v: i for i, v in enumerate(final)}
    tables = {
        "zero": index[zero_vec],
        "one": index[one_vec],
    }
    for name in ops:
        tables[name] = [
            [index[vec_op(name, a, b)] for b in final] for a in final
        ]
    reps = _representatives(final, index, coords, names)
    labels = [str(reps[i]) if reps[i] is not None else "e%d" % i for i in range(len(final))]
    alg = FiniteAlgebra(
        "lindenbaum(n=%d)" % n,
        len(final),
        Signature(tuple((nm, 2) for nm in ops) + (("zero", 0), ("one", 0))),
        tables,
        labels=labels,
    )
    return Lindenbaum(alg, final, reps, [index[g] for g in gen_vecs], coords, index)


def _representatives(final, index, coords, names):
    reps = [None] * len(final)
    remaining = len(final)

    def try_add(f):
        nonlocal remaining
        i = index.get(_value_vector(f, coords))
        if i is not None and reps[i] is None:
            reps[i] = f
            remaining -= 1
            return True
        return False

    for f in [Konst(0), Konst(1)] + [Var(nm) for nm in names]:
        try_add(f)
    frontier = [r for r in reps if r is not None]
    while remaining and frontier:
        have = [r for r in reps if r is not None]
        new = []
        for f in frontier:
            candidates = [Neg(f)]
            for g in have:
                for op in ("&", "->", "/\\", "\\/"):
                    candidates.append(Bin(op, f, g))
                    candidates.append(Bin(op, g, f))
            for c in candidates:
                if try_add(c):
                    new.append(c)
        frontier = new
    return reps


def projection_map(free, coord):
    """Element -> its value at one coordinate of a free algebra, recovered
    by closing the generator and constant values through the tables."""
    alg = free.algebra
    sig = alg.signature
    g = free.variety.generators[free.coords[coord][0]]
    val = {}
    for i, gi in enumerate(free.generators):
        val[gi] = free.coords[coord][1][i]
    for opname, ar in sig.ops:
        if ar == 0:
            val[alg.const(opname)] = g.const(opname)
    changed = True
    while changed:
        changed = False
        for opname, ar in sig.ops:
            if ar == 1:
                t, tg = table(alg, opname), table(g, opname)
                for x in list(val):
                    y = t[x]
                    if y not in val:
                        val[y] = tg[val[x]]
                        changed = True
            elif ar == 2:
                t, tg = table(alg, opname), table(g, opname)
                for x in list(val):
                    for y in list(val):
                        z = t[x][y]
                        if z not in val:
                            val[z] = tg[val[x]][val[y]]
                            changed = True
    return [val[i] for i in range(alg.size)]


def bitmask(members):
    return sum(1 << i for i in members)


def enumerate_closed(alg, universe, up, const, binary=(), unary=()):
    """Every closed up-set (down-set) of the universe by a DFS over a
    linear extension, with the operation closure tested at the leaves."""
    binary = [table(alg, name) for name in binary]
    unary = [table(alg, name) for name in unary]
    uni = sorted(universe)
    inside = frozenset(uni)
    leq = alg.leq
    beyond = {
        a: frozenset(b for b in uni if b != a and (leq(a, b) if up else leq(b, a)))
        for a in uni
    }
    order = sorted(uni, key=lambda a: (len(beyond[a]), a))
    out = []

    def closed(chosen):
        if const not in chosen:
            return False
        for a in chosen:
            for t in binary:
                row = t[a]
                for b in chosen:
                    v = row[b]
                    if v not in chosen and v in inside:
                        return False
            for t in unary:
                v = t[a]
                if v not in chosen and v in inside:
                    return False
        return True

    def rec(i, chosen):
        if i == len(order):
            if closed(chosen):
                out.append(chosen)
            return
        e = order[i]
        rec(i + 1, chosen)
        if beyond[e] <= chosen:
            rec(i + 1, chosen | {e})

    rec(0, frozenset())
    out.sort(key=bitmask)
    return out


def closed_sets(alg, universe, up, const, binary=(), unary=()):
    """The sets of `enumerate_closed` by testing every subset of the
    universe against the definition: it holds `const`, holds every element
    of the universe above (below) a member, and holds every value in the
    universe of an op on members.  Complete on any table, but 2^|U| rows."""
    uni = np.array(sorted(universe), dtype=np.intp)
    m = len(uni)
    sub = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)  # row: a subset
    rows = np.zeros((len(sub), alg.size), dtype=bool)
    rows[:, uni] = sub
    inside = np.zeros(alg.size, dtype=bool)
    inside[uni] = True
    le = alg.np_table("meet") == np.arange(alg.size)[:, None]  # le[a, b]: a <= b
    step = (le if up else le.T)[np.ix_(uni, uni)]  # step[a, b]: b must follow a
    ok = rows[:, const] & ~(sub[:, :, None] & step & ~sub[:, None, :]).any(axis=(1, 2))
    for name in binary:
        t = alg.np_table(name)[np.ix_(uni, uni)]
        ok &= ~(sub[:, :, None] & sub[:, None, :] & inside[t] & ~rows[:, t]).any(axis=(1, 2))
    for name in unary:
        t = alg.np_table(name)[uni]
        ok &= ~(sub & inside[t] & ~rows[:, t]).any(axis=1)
    return [frozenset(uni[s].tolist()) for s in sub[ok]]


def is_prime_filter(alg, members):
    """Loop form: no join inside the set with both arguments outside."""
    if alg.zero in members:
        return False
    for a in range(alg.size):
        for b in range(alg.size):
            if alg.join(a, b) in members and a not in members and b not in members:
                return False
    return True


def prime_ideals_of(alg, subuniverse, operators):
    """Proper kernel ideals of the subuniverse that are meet-prime in it,
    from the DFS enumeration and a pair loop."""
    sub = sorted(subuniverse)
    out = []
    unary = [f for f in operators if f in alg.signature]
    for ideal in enumerate_closed(alg, sub, False, alg.zero, [additive(alg)], unary):
        if len(ideal) == len(sub):
            continue
        if all(
            alg.meet(a, b) not in ideal or a in ideal or b in ideal for a in sub for b in sub
        ):
            out.append(ideal)
    return out


def stalk_congruence(alg, ideal):
    """The least congruence collapsing the ideal to 0, by union-find."""
    return congruence_closure(alg, [(a, alg.zero) for a in ideal])


def VM(space, a):
    """V_M(a): the indices of the maximal points holding a, read off their
    members."""
    return frozenset(i for i, f in enumerate(space.max_points) if a in f.members)


def verify_dm_lemma(alg, space, lat_primes, subset_size=2):
    """The six D_M/V_M identities on frozenset point sets, item (iii)
    through one `generate_filter` per subset.  The library leaves out
    (iv) and the forward half of (vi), which hold by construction; they
    stay here, so equal reports also show that neither fired."""
    sp = space
    full = frozenset(range(len(sp.max_points)))

    def VL(a):
        return frozenset(i for i, f in enumerate(lat_primes) if a in f)

    def DM_set(xs):
        return full - full.intersection(*(VM(sp, x) for x in xs))

    n = alg.size
    violations = []

    def check(aid, cond, witness):
        if not cond and all(v[0] != aid for v in violations):
            violations.append((aid, witness))

    for a in range(n):
        for b in range(n):
            check("i-dm-join", sp.DM(a) & sp.DM(b) == sp.DM(alg.join(a, b)), (a, b))
            check(
                "ii-dm-meet",
                sp.DM(a) | sp.DM(b) == sp.DM(alg.meet(a, b)) == sp.DM(alg.star(a, b)),
                (a, b),
            )
            check("v-vm-meet", VM(sp, a) & VM(sp, b) == VM(sp, alg.meet(a, b)), (a, b))
            check("vi-max-forward", (not alg.leq(a, b)) or VM(sp, a) <= VM(sp, b), (a, b))
            check("vi-separation-iff", alg.leq(a, b) == (VL(a) <= VL(b)), (a, b))
    for k in range(1, subset_size + 1):
        for xs in combinations(range(n), k):
            fl = generate_filter(alg, xs)
            check("iii-dm-cover", (DM_set(xs) == full) == (len(fl.members) == n), xs)
    for k in range(1, subset_size + 1):
        for xs in combinations(range(n), k):
            for ys in combinations(range(n), k):
                check(
                    "iv-dm-union",
                    DM_set(set(xs) | set(ys)) == DM_set(xs) | DM_set(ys),
                    (xs, ys),
                )
    return AxiomReport("dm-lemma", not violations, violations)


# ---- the loop suites of reslat.kripke ------------------------------------------


def _leq_all(alg, left, right):
    """left[i] <= right[i] elementwise, via the meet table."""
    M = alg.np_table("meet")
    return np.array_equal(M[left, right], left)


def _note(violations, aid, ok, witness=None):
    """Record a failed identity, keeping the first witness per identity."""
    if not ok and all(v[0] != aid for v in violations):
        violations.append((aid, witness))


def verify_derived_identities(ksa):
    """The nine derived-identity groups for cylindrifiers, co-quantifiers
    and substitutions; exhaustively instantiated over the finite index set."""
    alg = ksa.algebra
    n = alg.size
    ar = np.arange(n)
    J = alg.np_table("join")
    M = alg.np_table("meet")
    I = alg.np_table("imp")
    violations = []
    note = partial(_note, violations)
    alpha = ksa.alpha
    for i in range(alpha):
        C = ksa.c(i)
        Q = ksa.q(i)
        note("1-increasing[%d]" % i, _leq_all(alg, ar, C[ar]), i)
        note("1-idempotent[%d]" % i, np.array_equal(C[C], C), i)
        note(
            "1-additive[%d]" % i,
            np.array_equal(C[J], J[C[:, None], C[None, :]]),
            i,
        )
        note("q-decreasing[%d]" % i, _leq_all(alg, Q[ar], ar), i)
        for j in range(alpha):
            Cj = ksa.c(j)
            note(
                "1-commute[%d,%d]" % (i, j),
                np.array_equal(C[Cj], Cj[C]),
                (i, j),
            )
    for tau in ksa.G:
        S = ksa.s(tau)
        note(
            "2-endo-join[%s]" % (tau,),
            np.array_equal(S[J], J[S[:, None], S[None, :]]),
            tau,
        )
        note(
            "2-endo-meet[%s]" % (tau,),
            np.array_equal(S[M], M[S[:, None], S[None, :]]),
            tau,
        )
        note(
            "2-endo-imp[%s]" % (tau,),
            np.array_equal(S[I], I[S[:, None], S[None, :]]),
            tau,
        )
        note("2-endo-zero[%s]" % (tau,), S[alg.zero] == alg.zero, tau)
    ident = tuple(range(ksa.alpha))
    note("3-s-id", np.array_equal(ksa.s(ident), ar), ident)
    for sigma in ksa.G:
        Ss = ksa.s(sigma)
        for tau in ksa.G:
            St = ksa.s(tau)
            note(
                "3-s-compose",
                np.array_equal(Ss[St], ksa.s(compose(sigma, tau))),
                (sigma, tau),
            )
    for tau in ksa.G:
        for i in range(alpha):
            Ci = ksa.c(i)
            for j in range(alpha):
                tau2 = tau[:i] + (j,) + tau[i + 1 :]
                if tau2 not in ksa.G.maps:
                    continue
                note(
                    "4-s-cyl-fuse",
                    np.array_equal(ksa.s(tau)[Ci], ksa.s(tau2)[Ci]),
                    (tau, i, j),
                )
        for j in range(alpha):
            pre = [t for t in range(alpha) if tau[t] == j]
            if len(pre) == 1:
                i = pre[0]
                note(
                    "5-push-c",
                    np.array_equal(ksa.s(tau)[ksa.c(i)], ksa.c(j)[ksa.s(tau)]),
                    (tau, i, j),
                )
                note(
                    "5-push-q",
                    np.array_equal(ksa.s(tau)[ksa.q(i)], ksa.q(j)[ksa.s(tau)]),
                    (tau, i, j),
                )
    for i in range(alpha):
        for j in range(alpha):
            Sij = ksa.s(replacement(alpha, i, j))
            Sji = ksa.s(replacement(alpha, j, i))
            if i != j:
                note("6-c-absorb", np.array_equal(ksa.c(i)[Sij], Sij), (i, j))
                note("6-q-absorb", np.array_equal(ksa.q(i)[Sij], Sij), (i, j))
            note("7-s-on-c", np.array_equal(Sij[ksa.c(i)], ksa.c(i)), (i, j))
            note("7-s-on-q", np.array_equal(Sij[ksa.q(i)], ksa.q(i)), (i, j))
            for k in range(alpha):
                if k in (i, j):
                    continue
                note(
                    "8-commute-c",
                    np.array_equal(Sij[ksa.c(k)], ksa.c(k)[Sij]),
                    (i, j, k),
                )
                note(
                    "8-commute-q",
                    np.array_equal(Sij[ksa.q(k)], ksa.q(k)[Sij]),
                    (i, j, k),
                )
            note("9-c-swap", np.array_equal(ksa.c(i)[Sji], ksa.c(j)[Sij]), (i, j))
            note("9-q-swap", np.array_equal(ksa.q(i)[Sji], ksa.q(j)[Sij]), (i, j))
    return AxiomReport("kripke-derived", not violations, violations)


def _compose_block(ksa, kind, J):
    """c_(J) / q_(J) as composed unary arrays; J any index subset."""
    n = ksa.algebra.size
    out = np.arange(n)
    for j in sorted(J):
        out = (ksa.c(j) if kind == "c" else ksa.q(j))[out]
    return out


def verify_gpha_axioms(ksa):
    """GPHA axioms (1)-(6) over all finite J, J' and all sigma, tau in G;
    with diagonals also the three GPHAE identities.

    The q-form of axiom (3) is checked as q_(JuJ') = q_(J) q_(J'),
    the q-analogue of the c-clause (composition of the co-quantifiers).
    """
    alg = ksa.algebra
    n = alg.size
    ar = np.arange(n)
    alpha = ksa.alpha
    subsets = []
    for r in range(alpha + 1):
        subsets.extend(frozenset(c) for c in combinations(range(alpha), r))
    violations = []
    note = partial(_note, violations)
    ident = tuple(range(alpha))
    S = {tau: ksa.s(tau) for tau in ksa.G}
    note("gpha1-s-id", np.array_equal(S[ident], ar), ident)
    for sigma in ksa.G:
        for tau in ksa.G:
            note(
                "gpha2-compose",
                np.array_equal(S[sigma][S[tau]], S[compose(sigma, tau)]),
                (sigma, tau),
            )
    cblk = {J: _compose_block(ksa, "c", J) for J in subsets}
    qblk = {J: _compose_block(ksa, "q", J) for J in subsets}
    for J in subsets:
        for J2 in subsets:
            note(
                "gpha3-c-union",
                np.array_equal(cblk[J | J2], cblk[J][cblk[J2]]),
                (sorted(J), sorted(J2)),
            )
            note(
                "gpha3-q-union",
                np.array_equal(qblk[J | J2], qblk[J][qblk[J2]]),
                (sorted(J), sorted(J2)),
            )
        note("gpha4-cq", np.array_equal(cblk[J][qblk[J]], qblk[J]), sorted(J))
        note("gpha4-qc", np.array_equal(qblk[J][cblk[J]], cblk[J]), sorted(J))
        for sigma in ksa.G:
            for tau in ksa.G:
                if all(sigma[t] == tau[t] for t in range(alpha) if t not in J):
                    note(
                        "gpha5-c",
                        np.array_equal(S[sigma][cblk[J]], S[tau][cblk[J]]),
                        (sigma, tau, sorted(J)),
                    )
                    note(
                        "gpha5-q",
                        np.array_equal(S[sigma][qblk[J]], S[tau][qblk[J]]),
                        (sigma, tau, sorted(J)),
                    )
        for sigma in ksa.G:
            pre = frozenset(t for t in range(alpha) if sigma[t] in J)
            if len(set(sigma[t] for t in pre)) == len(pre):
                note(
                    "gpha6-c",
                    np.array_equal(cblk[J][S[sigma]], S[sigma][cblk[pre]]),
                    (sigma, sorted(J)),
                )
                note(
                    "gpha6-q",
                    np.array_equal(qblk[J][S[sigma]], S[sigma][qblk[pre]]),
                    (sigma, sorted(J)),
                )
    if ksa.with_diagonals:
        M = alg.np_table("meet")
        for k in range(alpha):
            note("gphae1-dkk", ksa.d(k, k) == alg.one, k)
            for l in range(alpha):
                dkl = ksa.d(k, l)
                for tau in ksa.G:
                    note(
                        "gphae2-s-d",
                        int(S[tau][dkl]) == ksa.d(tau[k], tau[l]),
                        (tau, k, l),
                    )
                Skl = ksa.s(replacement(alpha, k, l))
                lhs = M[ar, dkl]
                note("gphae3-d-leq-s", _leq_all(alg, lhs, Skl[ar]), (k, l))
    return AxiomReport("gpha", not violations, violations)


def verify_heyting_quantifiers(ksa, j):
    """The six existential axioms for c_j and four universal ones for q_j."""
    alg = ksa.algebra
    n = alg.size
    ar = np.arange(n)
    J = alg.np_table("join")
    M = alg.np_table("meet")
    I = alg.np_table("imp")
    C = ksa.c(j)
    Q = ksa.q(j)
    violations = []
    note = partial(_note, violations)
    note("exists1-zero", int(C[alg.zero]) == alg.zero)
    note("exists2-increasing", _leq_all(alg, ar, C[ar]))
    note(
        "exists3-meet",
        np.array_equal(C[M[ar[:, None], C[None, :]]], M[C[:, None], C[None, :]]),
    )
    note(
        "exists4-imp",
        np.array_equal(C[I[C[:, None], C[None, :]]], I[C[:, None], C[None, :]]),
    )
    note(
        "exists5-join",
        np.array_equal(C[J[C[:, None], C[None, :]]], J[C[:, None], C[None, :]]),
    )
    note("exists6-idempotent", np.array_equal(C[C], C))
    note("forall1-one", int(Q[alg.one]) == alg.one)
    note("forall2-decreasing", _leq_all(alg, Q[ar], ar))
    lhs = Q[I]
    rhs = I[Q[:, None], Q[None, :]]
    note("forall3-imp", bool(np.array_equal(M[lhs, rhs], lhs)))
    note("forall4-idempotent", np.array_equal(Q[Q], Q))
    return AxiomReport("heyting-quantifiers", not violations, violations)


def verify_kripke(ksa):
    """`kripke.verify_kripke` over the loop suites, as a list."""
    reports = [(("derived",), verify_derived_identities(ksa)), (("gpha",), verify_gpha_axioms(ksa))]
    reports += [(("quantifiers", j), verify_heyting_quantifiers(ksa, j)) for j in range(ksa.alpha)]
    out = [(suite, report.passed, report.violations) for suite, report in reports]
    if ksa.with_diagonals:
        out.append((("diagonals",), *verify_diagonal_equivalence_shadow(ksa)))
    return out


def subalgebra_generate(alg, seed):
    """Sg by per-element loops over the tuple tables."""
    op_names = alg.signature.names()
    current = set(seed)
    for name in op_names:
        if alg.signature.arity(name) == 0:
            current.add(alg.const(name))
    unary = [table(alg, n) for n in op_names if alg.signature.arity(n) == 1]
    binary = [table(alg, n) for n in op_names if alg.signature.arity(n) == 2]
    frontier = list(current)
    known = list(current)
    while frontier:
        new = []
        for e in frontier:
            for t in unary:
                v = t[e]
                if v not in current:
                    current.add(v)
                    new.append(v)
            for t in binary:
                for x in known:
                    for v in (t[e][x], t[x][e]):
                        if v not in current:
                            current.add(v)
                            new.append(v)
        known.extend(new)
        frontier = new
    return frozenset(current)


def _close_map(a, b, seed, domain):
    """Extend seed (element -> image) over the subuniverse `domain` of
    `a`, constants seeded too: the map, or None on conflict."""
    m = {}
    for opname, arity in a.signature.ops:
        if arity == 0:
            m[a.const(opname)] = b.const(opname)
    for k, v in seed.items():
        if k in m and m[k] != v:
            return None
        m[k] = v
    unary = [(table(a, n), table(b, n)) for n, ar in a.signature.ops if ar == 1]
    binary = [(table(a, n), table(b, n)) for n, ar in a.signature.ops if ar == 2]
    known = [k for k in m if k in domain]
    m = {k: v for k, v in m.items() if k in domain}
    frontier = list(known)
    while frontier:
        new = []
        for e in frontier:
            for ta, tb in unary:
                v = ta[e]
                if v not in domain:
                    continue
                img = tb[m[e]]
                if v in m:
                    if m[v] != img:
                        return None
                else:
                    m[v] = img
                    new.append(v)
            for ta, tb in binary:
                for x in known:
                    for v, img in (
                        (ta[e][x], tb[m[e]][m[x]]),
                        (ta[x][e], tb[m[x]][m[e]]),
                    ):
                        if v not in domain:
                            continue
                        if v in m:
                            if m[v] != img:
                                return None
                        else:
                            m[v] = img
                            new.append(v)
        known.extend(new)
        frontier = new
    return m


def generating_sequence(alg, hint=None, start=()):
    """`algebra.generating_sequence` over the loop Sg above."""
    span = subalgebra_generate(alg, list(start))
    if len(span) == alg.size:
        return []
    if hint is not None:
        gens = list(hint)
        if len(subalgebra_generate(alg, list(start) + gens)) == alg.size:
            return gens
    gens = []
    while len(span) < alg.size:
        best, best_span = None, None
        for x in range(alg.size):
            if x in span:
                continue
            s = subalgebra_generate(alg, list(span) + [x])
            if best_span is None or len(s) > len(best_span):
                best, best_span = x, s
                if len(s) == alg.size:
                    break
        gens.append(best)
        span = best_span
    return gens


def homomorphisms(a, b, injective=False, gens=None, seed=None, limit=None):
    """Generator-image search that closes each level's map over the
    precomputed Sg of the pinned elements."""
    base = list(seed.keys()) if seed else []
    gens = generating_sequence(a, hint=gens, start=base)
    domains = [subalgebra_generate(a, base + gens[:i]) for i in range(len(gens) + 1)]
    results = []

    def dfs(level, images):
        if limit is not None and len(results) >= limit:
            return
        current = dict(seed) if seed else {}
        current.update({g: img for g, img in zip(gens[:level], images)})
        m = _close_map(a, b, current, domains[level])
        if m is None:
            return
        if injective and len(set(m.values())) != len(m):
            return
        if level == len(gens):
            results.append(tuple(m[i] for i in range(a.size)))
            return
        for img in range(b.size):
            dfs(level + 1, images + [img])

    dfs(0, [])
    return results


def first_hom_failure(a, b, mapping):
    """First (op, args), in signature order and then row order, where the
    map a -> b fails an operation, or None: a loop over every entry."""
    for opname, ar in a.signature.ops:
        ta, tb = table(a, opname), table(b, opname)
        if ar == 0:
            if mapping[ta] != tb:
                return (opname, ())
        elif ar == 1:
            for x in range(a.size):
                if mapping[ta[x]] != tb[mapping[x]]:
                    return (opname, (x,))
        else:
            for x in range(a.size):
                for y in range(a.size):
                    if mapping[ta[x][y]] != tb[mapping[x]][mapping[y]]:
                        return (opname, (x, y))
    return None


def _row_keys(rows):
    """One void scalar per row; big-endian, so byte order is the
    lexicographic order of the (non-negative) rows."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _key_rows(keys):
    return keys.view(">i4").reshape(len(keys), -1).astype(np.int32)


def free_algebra(variety, n, coords=None, budget=None):
    """The Birkhoff closure over void row keys: every round takes the
    rows of each op block, keys them, and merges the unseen keys."""
    from reslat.free import FreeAlgebra

    budget = budget or budgets.from_env()
    if coords is None:
        coords = [
            (ai, v)
            for ai, g in enumerate(variety.generators)
            for v in iproduct(range(g.size), repeat=n)
        ]
    gens_of = [variety.generators[ai] for ai, _ in coords]
    sig = variety.signature
    C = len(coords)
    ctabs = {
        opname: [gens_of[c].np_table(opname) for c in range(C)]
        for opname, ar in sig.ops
        if ar > 0
    }

    def apply_unary(opname, block):
        out = np.empty(block.shape, dtype=">i4")
        for c in range(C):
            out[:, c] = ctabs[opname][c][block[:, c]]
        return out

    def apply_binary(opname, left, right):
        m1, m2 = len(left), len(right)
        if m1 * m2 > budget.closure:
            raise ResourceError(
                "free-algebra closure block of %d candidates over closure budget %d"
                % (m1 * m2, budget.closure)
            )
        out = np.empty((m1 * m2, C), dtype=">i4")
        for c in range(C):
            out[:, c] = ctabs[opname][c][left[:, c][:, None], right[:, c][None, :]].reshape(-1)
        return out

    def block_keys(frontier, E):
        for opname, ar in sig.ops:
            if ar == 1:
                yield np.unique(_row_keys(apply_unary(opname, frontier)))
            elif ar == 2:
                yield np.unique(_row_keys(apply_binary(opname, frontier, E)))
                yield np.unique(_row_keys(apply_binary(opname, E, frontier)))

    projections = _row_keys([[v[i] for _, v in coords] for i in range(n)])
    constants = {
        opname: _row_keys([[g.const(opname) for g in gens_of]])
        for opname, ar in sig.ops
        if ar == 0
    }
    known = np.unique(np.concatenate([projections, *constants.values()]))
    frontier = E = _key_rows(known)
    while True:
        fresh = [known[:0]]
        for keys in block_keys(frontier, E):
            at = np.searchsorted(known, keys).clip(max=len(known) - 1)
            fresh.append(keys[known[at] != keys])
        fresh = np.unique(np.concatenate(fresh))
        if not len(fresh):
            break
        known = np.union1d(known, fresh)
        if len(known) > budget.closure:
            raise ResourceError(
                "free-algebra closure of %d elements over closure budget %d"
                % (len(known), budget.closure)
            )
        frontier, E = _key_rows(fresh), _key_rows(known)
    size = len(known)

    def index_of(rows):
        return np.searchsorted(known, _row_keys(rows))

    tables = {}
    for opname, ar in sig.ops:
        if ar == 0:
            tables[opname] = int(np.searchsorted(known, constants[opname])[0])
        elif ar == 1:
            tables[opname] = index_of(apply_unary(opname, E))
        else:
            tables[opname] = index_of(apply_binary(opname, E, E)).reshape(size, size)
    generators = np.searchsorted(known, projections).tolist()
    labels = ["e%d" % i for i in range(size)]
    for i in reversed(range(n)):
        labels[generators[i]] = "g%d" % i
    alg = FiniteAlgebra(
        "Fr_%d(%s)" % (n, "+".join(g.name for g in variety.generators)),
        size,
        sig,
        tables,
        labels=labels,
    )
    return FreeAlgebra(alg, generators, coords, variety, E)


def generate_closed(alg, seed, up, const, binary=(), unary=(), universe=None):
    """The least closed up-set (down-set) by walking the whole universe
    through `alg.leq` for every member added."""
    binary = [table(alg, name) for name in binary]
    unary = [table(alg, name) for name in unary]
    leq = alg.leq
    uni = range(alg.size) if universe is None else universe
    inside = set(uni)
    found = set(seed) | {const}
    members = list(found)
    for i, a in enumerate(members):
        new = [b for b in uni if (leq(a, b) if up else leq(b, a))]
        new += [t[a] for t in unary]
        for t in binary:
            for b in members[: i + 1]:
                new += (t[a][b], t[b][a])
        for v in new:
            if v not in found and v in inside:
                found.add(v)
                members.append(v)
    return frozenset(found)


def congruence_closure(alg, pairs, universe=None):
    """The least congruence holding `pairs`, by union-find with one union
    per table entry of each merged pair, least member as the root."""
    n = alg.size
    inside = range(n) if universe is None else tuple(universe)
    find, union = _union_find(n)
    queue = [p for p in pairs if union(*p)]
    unary = [table(alg, nm) for nm, ar in alg.signature.ops if ar == 1]
    binary = [table(alg, nm) for nm, ar in alg.signature.ops if ar == 2]
    while queue:
        x, y = queue.pop()
        for t in unary:
            if union(t[x], t[y]):
                queue.append((t[x], t[y]))
        for t in binary:
            for z in inside:
                if union(t[x][z], t[y][z]):
                    queue.append((t[x][z], t[y][z]))
                if union(t[z][x], t[z][y]):
                    queue.append((t[z][x], t[z][y]))
    return tuple(find(x) for x in range(n))


def section_algebra(sheaf, secs):
    """Gamma of a dual sheaf: every op applied section by section through
    the stalks' tables, each value looked up by its tuple."""
    index = {s: i for i, s in enumerate(secs)}
    tables = {}
    for name, ar in sheaf.alg.signature.ops:
        stalk_tabs = [table(q, name) for q in sheaf.stalks]
        if ar == 0:
            v = tuple(stalk_tabs)
            if v not in index:
                raise DomainError("sections not closed under constant %r" % name)
            tables[name] = index[v]
        elif ar == 1:
            col = []
            for s in secs:
                v = tuple(stalk_tabs[i][s[i]] for i in range(len(s)))
                if v not in index:
                    raise DomainError("sections not closed under %r" % name)
                col.append(index[v])
            tables[name] = col
        else:
            rows = []
            for s in secs:
                row = []
                for t2 in secs:
                    v = tuple(stalk_tabs[i][s[i]][t2[i]] for i in range(len(s)))
                    if v not in index:
                        raise DomainError("sections not closed under %r" % name)
                    row.append(index[v])
                rows.append(row)
            tables[name] = rows
    return FiniteAlgebra("Gamma(%s)" % sheaf.alg.name, len(secs), sheaf.alg.signature, tables), index


# ---- the per-pair order loops that FiniteAlgebra.order replaced ----


def is_ideal(alg, members):
    add = alg.cells[additive(alg)]
    s = set(members)
    if alg.zero not in s:
        return False
    for a in s:
        for b in s:
            if add[a, b] not in s:
                return False
        for b in range(alg.size):
            if alg.leq(b, a) and b not in s:
                return False
    return True


def ideal_join_characterize(alg, m_ideal, n_ideal):
    """Ig(M u N) = {x : x <= b (+) c for b in M, c in N}, exhaustively."""
    add = alg.cells[additive(alg)]
    generated = ideal_generate(alg, m_ideal | n_ideal)
    described = frozenset(
        x
        for x in range(alg.size)
        if any(
            alg.leq(x, add[b, c])
            for b in m_ideal
            for c in n_ideal
        )
    )
    return generated == described


def superamalgam_check(problem, d, k, h):
    """Order reflection: k(a) <= h(b) forces a C-interpolant t with
    a <= m(t) and n(t) <= b; checked over all |A| x |B| pairs."""
    a_alg, b_alg, c_alg = problem.a, problem.b, problem.c
    for x in range(a_alg.size):
        for y in range(b_alg.size):
            if not d.leq(k[x], h[y]):
                continue
            if not any(
                a_alg.leq(x, problem.m[t]) and b_alg.leq(problem.n[t], y)
                for t in range(c_alg.size)
            ):
                return False
    return True


def interpolant_search(alg, x1, x2, x, z, budget=None):
    """y in Sg(X1 cap X2) with x <= y <= z; when the identity-term phase is
    empty, retry against n-fold oplus powers of z (n <= Budget.tau_power).

    Returns (y, n) with n = 1 for the identity-term case, or None.
    """
    tau_bound = (budget or budgets.from_env()).tau_power
    sg1 = subalgebra_generate(alg, x1)
    sg2 = subalgebra_generate(alg, x2)
    if x not in sg1:
        raise PreconditionError("x must lie in Sg(X1)")
    if z not in sg2:
        raise PreconditionError("z must lie in Sg(X2)")
    if not alg.leq(x, z):
        raise PreconditionError("need x <= z")
    common = sorted(subalgebra_generate(alg, set(x1) & set(x2)))
    for y in common:
        if alg.leq(x, y) and alg.leq(y, z):
            return y, 1
    add = alg.cells["oplus" if "oplus" in alg.signature else "join"]
    zn = z
    for n in range(2, tau_bound + 1):
        zn = add[zn, z]
        for y in common:
            if alg.leq(x, y) and alg.leq(y, zn):
                return y, n
    return None


def discriminator_check(alg, d_table):
    """The three schemata for a unary discriminator-style term:
    (a) x <= d(x); (b) d(d(x)) <= d(x); (c) f(x) <= d(x) for every
    extra operator f.  Returns (bool, violations)."""
    if len(d_table) != alg.size:
        raise DomainError("d table has wrong length")
    violations = []
    for x in range(alg.size):
        if not alg.leq(x, d_table[x]):
            violations.append(("a", x))
            break
    for x in range(alg.size):
        if not alg.leq(d_table[d_table[x]], d_table[x]):
            violations.append(("b", x))
            break
    for name in alg.extra_operator_names():
        t = alg.cells[name]
        for x in range(alg.size):
            if not alg.leq(t[x], d_table[x]):
                violations.append(("c", (name, x)))
                break
    return not violations, violations


def is_relatively_complemented(alg):
    """Every interval [c, d] is complemented."""
    n = alg.size
    for c in range(n):
        for d in range(n):
            if not alg.leq(c, d):
                continue
            for a in range(n):
                if not (alg.leq(c, a) and alg.leq(a, d)):
                    continue
                if not any(
                    alg.leq(c, b)
                    and alg.leq(b, d)
                    and alg.join(a, b) == d
                    and alg.meet(a, b) == c
                    for b in range(n)
                ):
                    return False
    return True


def is_filter(alg, members):
    s = set(members)
    if not s or alg.one not in s:
        return False
    for a in s:
        for b in s:
            if alg.star(a, b) not in s:
                return False
        for b in range(alg.size):
            if alg.leq(a, b) and b not in s:
                return False
    return True


def atoms(alg):
    """Minimal nonzero elements of the derived lattice order."""
    out = []
    for a in range(alg.size):
        if a == alg.zero:
            continue
        if all(
            b == alg.zero or b == a or not alg.leq(b, a) for b in range(alg.size)
        ):
            out.append(a)
    return out

def is_atomic(alg):
    """(True, None) or (False, witness): a nonzero element with no atom below."""
    ats = atoms(alg)
    for a in range(alg.size):
        if a == alg.zero:
            continue
        if not any(alg.leq(x, a) for x in ats):
            return False, a
    return True, None


def hereditary_closed(alg, b, op_names=None):
    """b is hereditary closed when every operator fixes everything below b."""
    if op_names is None:
        op_names = alg.extra_operator_names()
    for x in range(alg.size):
        if not alg.leq(x, b):
            continue
        for name in op_names:
            if alg.apply(name, x) != x:
                return False, (x, name)
    return True, None


def isolated_dense_check(alg, space=None, tags=None, bound=None, budget=None):
    """Isolated (principal) points are dense: every nonempty basic open
    D_M(a) contains a principal point."""
    if space is None or tags is None:
        space, tags = type_space(alg, bound=bound, budget=budget)
    principal = {i for i, t in enumerate(tags) if t}
    for a in range(alg.size):
        dm = space.DM(a)
        if dm and not (dm & principal):
            return False, ("basic-open", a)
    return True, None


def is_freely_generated_by(free, ys):
    """Y freely generates iff Y generates and every valuation of Y into a
    variety generator extends to a homomorphism, found by search."""
    alg = free.algebra
    if len(ys) != len(free.generators):
        raise PreconditionError("|Y| must match the free generator count")
    if len(subalgebra_generate(alg, ys)) != alg.size:
        return False
    return all(
        homomorphisms(alg, g, seed=dict(zip(ys, v)), limit=1)
        for g in free.variety.generators
        for v in iproduct(range(g.size), repeat=len(ys))
    )


def nowhere_dense_check(alg, space):
    """The residual set of every join and meet decomposition of 2 and 3
    parts, p1 v (p2 v p3) and p1 ^ (p2 ^ p3), is empty.  The first failure
    by part count, then join before meet, then parts in lexicographic order."""
    everything = frozenset(range(len(space.max_points)))
    for k in (2, 3):
        for mode, fold in (("join", alg.join), ("meet", alg.meet)):
            for parts in iproduct(range(alg.size), repeat=k):
                a = parts[-1]
                for p in reversed(parts[:-1]):
                    a = fold(p, a)
                if mode == "join":
                    residual = VM(space, a).difference(*(VM(space, p) for p in parts))
                else:
                    residual = everything.intersection(*(VM(space, p) for p in parts)) - VM(space, a)
                if residual:
                    return False, (mode, parts)
    return True, None


def join_of_atoms_is_one(alg):
    """Dense-set join shadow, instantiated with X = the atoms: when some
    atom sits below every nonzero element, their join is 1.

    Holds in complemented algebras; the underlying argument needs
    b ^ -b = 0 and fails on chains, so callers should expect
    False there."""
    ats = atoms(alg)
    acc = alg.zero
    for a in ats:
        acc = alg.join(acc, a)
    covers = all(
        any(alg.leq(x, b) for x in ats)
        for b in range(alg.size)
        if b != alg.zero
    )
    return (not covers) or acc == alg.one
def upset(alg, a):
    return frozenset(b for b in range(alg.size) if alg.leq(a, b))
