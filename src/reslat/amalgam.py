"""Ideals, congruences, amalgamation and superamalgamation search,
congruence-pair extension, weak interpolation, discriminator checks and
the Gratzer-Schmidt ideal/congruence correspondence."""

from dataclasses import dataclass

import numpy

from . import budgets
from .algebra import (
    CORE_NAMES,
    _axiom_failures,
    _evaluate,
    _grid_chunks,
    _next_closure,
    _take_grid,
    enumerate_closed,
    generate_closed,
    homomorphisms,
    is_homomorphism,
    lattice_reduct,
    principal_closed,
    product,
    subalgebra_generate,
)
from .errors import DomainError, PreconditionError


def _additive(alg):
    """The additive op of an ideal: oplus where the algebra has it, else join."""
    return "oplus" if "oplus" in alg.signature else "join"


def _ideal_ops(alg, operators):
    """The `generate_closed` arguments after the seed or universe for the
    ideals closed also under the declared operators the algebra carries."""
    return False, alg.zero, [_additive(alg)], [f for f in operators if f in alg.signature]


def ideal_generate(alg, seed, operators=()):
    """Ig: the least ideal over the seed, a frozenset: 0-containing,
    downward closed, closed under the additive op and the operators."""
    return generate_closed(alg, seed, *_ideal_ops(alg, operators))


def enumerate_ideals(alg, operators=(), universe=None, bound=None, budget=None):
    """Every ideal closed also under the operators, as frozensets sorted by
    bitmask: of the whole algebra, or the kernel ideals of a `universe`,
    down-sets within it, closed wherever the values stay inside.

    The whole algebra is gated up front: one larger than `bound` (default
    `Budget.spectrum`) is a ResourceError.  A universe, as the sheaf
    passes, is listed at any size when its ideals are all principal; its
    NextClosure fallback, up to 2^(n-1) sets, is refused over the bound."""
    budget = budget or budgets.from_env()
    closure = _ideal_ops(alg, operators)
    what = "ideal enumeration on %r" % alg.name
    if universe is None:
        budgets.check_size(what, alg.size, bound, budget.spectrum)
        return enumerate_closed(alg, range(alg.size), *closure)
    masks = principal_closed(alg, universe, *closure)
    if masks is not None:
        return [frozenset(numpy.flatnonzero(m).tolist()) for m in masks]
    budgets.check_size(what, len(universe), bound, budget.spectrum)
    return _next_closure(alg, universe, *closure)


def ideal_join_characterize(alg, m_ideal, n_ideal):
    """Ig(M u N) = {x : x <= b (+) c for b in M, c in N}, exhaustively."""
    add = alg.np_table(_additive(alg))
    sums = add.take(sorted(m_ideal), 0).take(sorted(n_ideal), 1).ravel()
    described = numpy.flatnonzero(alg.order[:, sums].any(axis=1))
    return ideal_generate(alg, m_ideal | n_ideal) == frozenset(described.tolist())


# ---------------------------------------------------------------------------
# congruences as partitions
# ---------------------------------------------------------------------------


def _union_find(n):
    """find and union over 0..n-1.  Every root is the least member of its
    class; union says whether it merged two classes."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    return find, union


def congruence_closure(alg, pairs, universe=None):
    """Smallest congruence containing the given element pairs.

    With `universe`, a subuniverse holding the pairs, it is the smallest
    congruence of that subalgebra, the identity outside it.  Every element
    maps to the least member of its class, so the tuple is canonical."""
    n = alg.size
    inside = slice(None) if universe is None else numpy.array(sorted(universe), dtype=numpy.intp)
    find, union = _union_find(n)
    queue = [p for p in pairs if union(*p)]
    unary = [alg.cells[nm] for nm, ar in alg.signature.ops if ar == 1]
    binary = [alg.tables[nm] for nm, ar in alg.signature.ops if ar == 2]
    while queue:
        x, y = queue.pop()
        moved = [(t[x], t[y]) for t in unary]
        for t in binary:  # the images of (x, y) in a row and in a column, where they differ
            for u, v in ((t[x, inside], t[y, inside]), (t[inside, x], t[inside, y])):
                differ = u != v
                moved += zip(u[differ].tolist(), v[differ].tolist())
        queue += [p for p in moved if union(*p)]
    return tuple(find(x) for x in range(n))


def ideal_congruence(alg, ideal):
    """The least congruence collapsing every member of `ideal` to 0.

    With m the join of the ideal and a join 0 = a for every a, any
    congruence that collapses the ideal collapses (m, 0), so it relates a
    to a join m: the partition by a join m lies inside it.  When that
    partition collapses the ideal and respects every table it is the
    answer; otherwise the pairs are closed with `congruence_closure`."""
    n, zero = alg.size, alg.zero
    join = alg.np_table("join")
    key = join[:, alg.join_all(ideal)]
    if (join[:, zero] == numpy.arange(n)).all() and (key[list(ideal)] == key[zero]).all():
        _, first, inverse = numpy.unique(key, return_index=True, return_inverse=True)
        theta = tuple(first[inverse].tolist())  # least member of each class
        if _respects(alg, theta):
            return theta
    return congruence_closure(alg, [(a, zero) for a in ideal])


def principal_congruence(alg, x, y):
    return congruence_closure(alg, [(x, y)])


def is_simple(alg):
    """Whether the algebra has exactly two congruences: it has more than
    one element and Cg(a, b) is total for every a < b.  Every congruence
    but the identity holds one of these principal ones, so the lattice
    they generate is not listed."""
    n = alg.size
    # total: every class root is the element 0
    return n > 1 and not any(any(principal_congruence(alg, a, b)) for a in range(n) for b in range(a + 1, n))


def all_congruences(alg, budget=None, bound=None):
    """The congruence lattice, as sorted canonical tuples.

    In an integral commutative residuated lattice (the residuated-lattice
    suite passes) congruences correspond to filters: theta_F relates x
    and y when x->y and y->x lie in F.  Each congruence of the algebra is
    one of its reduct's, so the theta_F that respect every table are all
    of them.  Any other algebra closes its principal congruences under
    join: every congruence of a finite algebra is a join of principal
    ones, so each new congruence is joined with the principal ones only."""
    budget = budget or budgets.from_env()
    what = "congruence lattice of %r" % alg.name
    budgets.check_size(what, alg.size, bound, max(budget.spectrum, 20))
    if all(name in alg.signature for name in CORE_NAMES) and (
        next(_axiom_failures(alg, "residuated-lattice"), None) is None
    ):
        return sorted(t for t in _filter_congruences(alg) if _respects(alg, t))
    n = alg.size
    identity = tuple(range(n))
    principals = {principal_congruence(alg, x, y) for x in range(n) for y in range(x + 1, n)}
    known = {identity} | principals
    frontier = list(known)
    while frontier:
        new = []
        for a in frontier:
            for b in principals:
                j = partition_join(a, b)
                if j not in known:
                    known.add(j)
                    new.append(j)
        frontier = new
    return sorted(known)


def _filter_congruences(alg):
    """theta_F for every filter F of an integral commutative residuated
    lattice, whose filters `principal_closed` lists: 1 is the top, so
    a*b <= a*1 = a passes its gate."""
    imp = alg.np_table("imp")
    out = []
    for f in principal_closed(alg, range(alg.size), True, alg.one, ["star"]):
        related = f.take(imp) & f.take(imp.T)
        out.append(tuple(related.argmax(axis=1).tolist()))  # least related
    return out


def _respects(alg, theta):
    """Whether the canonical tuple theta is compatible with every table:
    an op's value class depends only on its arguments' classes."""
    r = numpy.asarray(theta, dtype=numpy.int32)
    for name, arity in alg.signature.ops:
        if arity:
            t = alg.np_table(name)
            if not numpy.array_equal(r.take(t), r.take(_take_grid(t, r))):
                return False
    return True


def partition_leq(t1, t2):
    """t1 finer-or-equal t2 as partitions (every t1 class inside a t2 class)."""
    image = {}
    return all(image.setdefault(a, b) == b for a, b in zip(t1, t2))


def partition_join(t1, t2):
    """The finest partition coarser than both, as a canonical tuple.  Of
    two congruences it is their join in the congruence lattice."""
    find, union = _union_find(len(t1))
    for x, (a, b) in enumerate(zip(t1, t2)):
        union(x, a)
        union(x, b)
    return tuple(map(find, range(len(t1))))


def congruence_blocks(theta):
    blocks = {}
    for i, r in enumerate(theta):
        blocks.setdefault(r, []).append(i)
    return [tuple(b) for _, b in sorted(blocks.items())]


def quotient(alg, theta, name=None):
    """Quotient algebra and the projection map element -> class index."""
    blocks = congruence_blocks(theta)
    index = [0] * alg.size
    for ci, block in enumerate(blocks):
        for x in block:
            index[x] = ci
    reps = [block[0] for block in blocks]
    labels = ["[" + alg.label(r) + "]" for r in reps]
    q, _ = alg.restrict(name or alg.name + "/theta", reps, index, labels=labels)
    return q, index


def restrict_congruence(theta, subuniverse):
    """The restriction of a congruence to a subuniverse, as a pair set."""
    sub = sorted(subuniverse)
    return frozenset(
        (x, y) for x in sub for y in sub if theta[x] == theta[y]
    )


# ---------------------------------------------------------------------------
# congruence pairs and CP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruencePair:
    alg: object
    x1: tuple
    x2: tuple
    r: tuple  # congruence of the full algebra restricted to Sg(X1) members
    s: tuple

    def sg1(self):
        return subalgebra_generate(self.alg, self.x1)

    def sg2(self):
        return subalgebra_generate(self.alg, self.x2)

    def sg12(self):
        return subalgebra_generate(self.alg, set(self.x1) & set(self.x2))

    def agrees(self):
        common = self.sg12()
        return restrict_congruence(self.r, common) == restrict_congruence(self.s, common)


def cp_extend(pair):
    """The finest congruence T of the whole algebra whose restrictions to
    Sg(X1) and Sg(X2) are R and S; None when no such T exists.

    Every such T holds R|Sg(X1) and S|Sg(X2), so it holds their congruence
    closure: the closure is T when its restrictions are R and S, and no T
    exists when they are not (identity pairs extend to the identity)."""
    if not pair.agrees():
        raise PreconditionError("R and S disagree on Sg(X1 cap X2)")
    sg1, sg2 = pair.sg1(), pair.sg2()
    want_r = restrict_congruence(pair.r, sg1)
    want_s = restrict_congruence(pair.s, sg2)
    theta = congruence_closure(pair.alg, want_r | want_s)
    if restrict_congruence(theta, sg1) == want_r and restrict_congruence(theta, sg2) == want_s:
        return theta
    return None


def principal_congruence_on(alg, subuniverse, pairs):
    """The congruence of the subalgebra generated by the pairs, encoded
    as a full-length tuple (identity outside the subuniverse)."""
    return congruence_closure(alg, pairs, universe=subuniverse)


# ---------------------------------------------------------------------------
# amalgamation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmalgamProblem:
    a: object
    b: object
    c: object
    m: tuple  # embedding C -> A
    n: tuple  # embedding C -> B
    max_size: int = 0

    def validate(self):
        for name, images, target in (("m", self.m, self.a), ("n", self.n, self.b)):
            if len(images) != self.c.size or not all(
                (type(v) is int or isinstance(v, numpy.integer)) and 0 <= v < target.size
                for v in images
            ):
                raise PreconditionError(
                    "%s must map the %d elements of C to elements 0..%d" % (name, self.c.size, target.size - 1)
                )
        if len(set(self.m)) != self.c.size or len(set(self.n)) != self.c.size:
            raise PreconditionError("m and n must be injective")
        if not is_homomorphism(self.c, self.a, list(self.m)):
            raise PreconditionError("m is not a homomorphism")
        if not is_homomorphism(self.c, self.b, list(self.n)):
            raise PreconditionError("n is not a homomorphism")


def amalgamate(problem, require_super=False, budget=None):
    """Search (D, k, h) with k.m = h.n, both injective, deterministically.

    Candidate D's are quotients of A x B by its congruences, congruences
    enumerated smallest-first (fewest collapsed pairs); for each D the
    embeddings are searched by generator images.  Returns (D, k, h) or None.
    """
    problem.validate()
    budget = budget or budgets.from_env()
    bound = problem.max_size or budget.amalgam_size
    p = product([problem.a, problem.b])
    thetas = all_congruences(p, budget=budget)

    # smallest candidate D first (most-collapsed congruence first)
    def quotient_size(theta):
        return len(set(theta))

    thetas.sort(key=lambda t: (quotient_size(t), t))
    for theta in thetas:
        d, _ = quotient(p, theta, name="amalgam-candidate")
        if d.size > bound or d.size < problem.c.size:
            continue
        for k in homomorphisms(problem.a, d, injective=True):
            seed = {problem.n[c]: k[problem.m[c]] for c in range(problem.c.size)}
            if len(set(seed.values())) != len(set(seed.keys())):
                continue
            for h in homomorphisms(problem.b, d, injective=True, seed=seed):
                if require_super and not superamalgam_check(problem, d, k, h):
                    continue
                return d, k, h
    return None


def superamalgam_check(problem, d, k, h):
    """Order reflection: k(a) <= h(b) forces a C-interpolant t with
    a <= m(t) and n(t) <= b; checked over all |A| x |B| pairs."""
    k, h = numpy.asarray(k), numpy.asarray(h)
    related = d.order.take(k, 0).take(h, 1)  # [x, y]: k(x) <= h(y)
    # [x, y]: some t with x <= m(t) and n(t) <= y, a boolean matrix product
    interpolated = problem.a.order[:, list(problem.m)] @ problem.b.order[list(problem.n)]
    return not (related & ~interpolated).any()


# ---------------------------------------------------------------------------
# weak interpolation
# ---------------------------------------------------------------------------


def interpolant_search(alg, x1, x2, x, z, budget=None):
    """y in Sg(X1 cap X2) with x <= y <= z; when the identity-term phase is
    empty, retry against n-fold oplus powers of z (n <= Budget.tau_power).

    Returns (y, n) with n = 1 for the identity-term case, or None.
    """
    tau_power = (budget or budgets.from_env()).tau_power
    sg1 = subalgebra_generate(alg, x1)
    sg2 = subalgebra_generate(alg, x2)
    if x not in sg1:
        raise PreconditionError("x must lie in Sg(X1)")
    if z not in sg2:
        raise PreconditionError("z must lie in Sg(X2)")
    if not alg.leq(x, z):
        raise PreconditionError("need x <= z")
    common = numpy.array(sorted(subalgebra_generate(alg, set(x1) & set(x2))), dtype=numpy.intp)
    above_x = common[alg.order[x, common]]
    add = alg.cells[_additive(alg)]
    powers = [z]  # z and its n-fold sums, n <= tau_power
    for _ in range(2, tau_power + 1):
        powers.append(add[powers[-1], z])
    for n, zn in enumerate(powers, 1):
        between = above_x[alg.order[above_x, zn]]
        if len(between):
            return int(between[0]), n
    return None


# ---------------------------------------------------------------------------
# discriminator and Gratzer-Schmidt
# ---------------------------------------------------------------------------


def discriminator_check(alg, d_table):
    """The three schemata for a unary discriminator-style term:
    (a) x <= d(x); (b) d(d(x)) <= d(x); (c) f(x) <= d(x) for every
    extra operator f.  Returns (bool, violations).  A table of the wrong
    length, or with an entry that is no element, is a DomainError."""
    if len(d_table) != alg.size:
        raise DomainError("d table has wrong length")
    d = numpy.asarray(d_table, dtype=numpy.intp)
    if ((d < 0) | (d >= alg.size)).any():
        raise DomainError("d table entries must be elements 0..%d" % (alg.size - 1))
    # per schema: its operator, if any, and at x the element that must lie below d(x)
    schemata = [("a", None, numpy.arange(alg.size)), ("b", None, d[d])]
    schemata += [("c", name, alg.np_table(name)) for name in alg.extra_operator_names()]
    violations = []
    for schema, name, below in schemata:
        bad = numpy.flatnonzero(~alg.order[below, d])
        if len(bad):
            x = int(bad[0])
            violations.append((schema, x if name is None else (name, x)))
    return not violations, violations


def is_distributive(alg):
    """meet(a, join(b, c)) = join(meet(a, b), meet(a, c)) on every triple, by the
    class-axiom evaluator (`check_class_axioms` needs star and imp, which lattice reducts lack)."""
    lhs, rhs = ("meet", "a", ("join", "b", "c")), ("join", ("meet", "a", "b"), ("meet", "a", "c"))
    tables = {name: alg.np_table(name) for name in ("meet", "join")}
    envs = (tables | grid for grid in _grid_chunks(alg.size, ("a", "b", "c")))
    return all((_evaluate(lhs, env) == _evaluate(rhs, env)).all() for env in envs)


def is_relatively_complemented(alg):
    """Every interval [c, d] is complemented: each a in it has a b in it
    with a join b = d and a meet b = c.  Per c, each pair (a, b) with
    c <= b, a meet b = c and b <= a join b makes b a complement of a in
    [c, a join b]."""
    le, every = alg.order, numpy.arange(alg.size)
    join, meet = alg.np_table("join"), alg.np_table("meet")
    for c in range(alg.size):
        a, b = numpy.nonzero(le[c] & (meet == c) & le[every, join])
        complemented = numpy.zeros_like(le)  # [a, d]
        complemented[a, join[a, b]] = True
        inside = le[c][:, None] & le[c] & le  # [a, d]: c <= a <= d and c <= d
        if (inside & ~complemented).any():
            return False
    return True


def gratzer_schmidt_check(alg, bound=None, budget=None):
    """Ideal/congruence correspondence on the bounded-lattice reduct.

    Computes both lattices, tests the canonical map I |-> Co(I) for being
    an order isomorphism, independently tests distributivity and relative
    complementation (a finite lattice always has a minimum), and asserts
    the biconditional.
    """
    budget = budget or budgets.from_env()
    lat = lattice_reduct(alg)
    ideals = enumerate_ideals(lat, bound=bound, budget=budget)
    congruences = all_congruences(lat, budget=budget, bound=bound)
    mapping = {ideal: ideal_congruence(lat, ideal) for ideal in ideals}
    injective = len(set(mapping.values())) == len(mapping)
    surjective = set(mapping.values()) == set(congruences)
    monotone = all(
        (i <= j) == partition_leq(mapping[i], mapping[j]) for i in ideals for j in ideals
    )
    correspondence = injective and surjective and monotone
    distributive = is_distributive(lat)
    relatively_complemented = is_relatively_complemented(lat)
    conditions = distributive and relatively_complemented
    return {
        "correspondence": correspondence,
        "distributive": distributive,
        "relatively_complemented": relatively_complemented,
        "conditions": conditions,
        "biconditional": correspondence == conditions,
    }
