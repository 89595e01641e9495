"""Dual sheaves of finite lattices with operators: zero-dimensional part,
base space of prime ideals, stalks as point-quotients, germ-continuous
sections, the eta isomorphism, regularity classes, and the regular-ideals /
open-sets correspondence.

Ideals here are congruence-kernel style: the ideals of `reslat.amalgam`
(downward closed, closed under oplus when present, else join), closed
also under the algebra's operators (`extra_operator_names`), the notion
whose primes carry the duality.  `amalgam.ideal_rows` lists them as
bool rows, `enumerate_ideals` as frozensets, and `ideal_generate`
generates them; congruences come from `reslat.amalgam` too.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy

from . import budgets
from .algebra import member_rows, splits, union_closure
from .amalgam import (
    enumerate_ideals,
    ideal_congruence,
    ideal_generate,
    ideal_rows,
    is_relatively_complemented,
    is_simple,
)
from .errors import ResourceError


def sheaf_reduct(alg):
    """The lattice-with-operators reduct the duality lives on: join, meet,
    bounds, the MV additions when present, and the operators.  Residuated
    implication stays out: it is not part of the duality's similarity
    type, and quotients by point ideals need not respect it."""
    names = ["join", "meet", "zero", "one"]
    names += [extra for extra in ("oplus", "odot", "neg") if extra in alg.signature]
    names += alg.extra_operator_names()
    every = range(alg.size)
    return alg.restrict(alg.name + "#blo", every, every, names, alg.labels)[0]


def zero_dim(alg):
    """Zd: the elements every operator fixes, as a tuple."""
    return tuple(numpy.flatnonzero(~alg.moved(alg.extra_operator_names()).any(axis=0)).tolist())


def prime_ideals_of(alg, subuniverse, budget=None):
    """Kernel ideals of the subuniverse that are proper and meet-prime."""
    rows = ideal_rows(alg, alg.extra_operator_names(), subuniverse, budget=budget)
    proper = rows[rows.sum(axis=1) < len(set(subuniverse))]
    prime = proper[splits(alg, "meet", proper, subuniverse)]
    return [frozenset(numpy.flatnonzero(row).tolist()) for row in prime]


# ---------------------------------------------------------------------------
# the dual sheaf
# ---------------------------------------------------------------------------


@dataclass
class DualSheaf:
    """The base points and, as one read-only (points x n) int32 matrix,
    the projections: [i, a] is the class of a in the stalk at the i-th
    point, classes numbered in the order of their least members."""

    alg: object  # the lattice-with-operators reduct the duality acts on
    zd: tuple  # Zd, the elements every operator fixes
    points: list  # prime ideals of Zd (frozensets of alg elements)
    projections: numpy.ndarray  # [i, a]: the class of a at the i-th point

    def section_of(self, a):
        return tuple(self.projections[:, a].tolist())

    @cached_property
    def stalks(self):
        """The quotient algebra at each point, built on first read from
        its projection row."""
        out = []
        for row in self.projections:
            reps = numpy.unique(row, return_index=True)[1]
            labels = ["[" + self.alg.label(r) + "]" for r in reps.tolist()]
            out.append(self.alg.restrict("stalk", reps, row, labels=labels)[0])
        return out


def dual_sheaf(alg, budget=None):
    """Base space = prime ideals of Zd; the stalk at a point is
    reduct / Co(point), with Co the reduct congruence collapsing the point
    to 0, all points' congruences found by one `ideal_congruence` call."""
    reduct = sheaf_reduct(alg)
    zd = zero_dim(reduct)
    points = prime_ideals_of(reduct, zd, budget)
    thetas = ideal_congruence(reduct, points)
    rank = numpy.cumsum(thetas == numpy.arange(reduct.size), axis=1, dtype=numpy.int32) - 1
    projections = numpy.take_along_axis(rank, thetas, 1)
    projections.flags.writeable = False
    return DualSheaf(reduct, zd, points, projections)


def _min_nbhd(sheaf):
    """Bool matrix whose entry [i, j] says whether the j-th point lies in
    U_i, the minimal basic neighbourhood of the i-th: N_b for b the meet
    of the elements of Zd outside it."""
    alg = sheaf.alg
    tops = [alg.meet_all(b for b in sheaf.zd if b not in x) for x in sheaf.points]
    return ~member_rows(alg.size, sheaf.points)[:, tops].T


def sections(sheaf, budget=None):
    """All germ-continuous sections: sigma is continuous when it agrees
    with some principal section sigma_a on a basic neighbourhood of every
    point.

    The search pins the minimal neighbourhood U_i of one point after
    another to a principal germ, which keeps the walk close to the actual
    section count instead of the raw product of stalk sizes.  It skips a
    point j that lies in another point's U_i: U_i is an open holding j,
    so it holds U_j, as in a finite space a point's minimal neighbourhood
    lies inside every open holding the point (P. Alexandroff, Diskrete
    Raume, 1937), and every germ on U_i restricts to one on U_j.  The
    test reads U_j inside U_i off the neighbourhoods themselves, and of
    two equal ones skips the later point's.  Without points the one
    section is the empty tuple."""
    budget = budget or budgets.from_env()
    npts = len(sheaf.points)
    nbhd = _min_nbhd(sheaf)
    inside = ~(nbhd[None, :, :] & ~nbhd[:, None, :]).any(axis=2)  # [i, j]: U_j within U_i
    order = numpy.arange(npts)
    covers = nbhd & inside & (~inside.T | (order[:, None] < order)) & (order[:, None] != order)
    levels = []
    for i in numpy.flatnonzero(~covers.any(axis=0)):
        at = numpy.flatnonzero(nbhd[i])
        germs = sorted(set(map(tuple, sheaf.projections[at].T.tolist())))
        levels.append((at, numpy.array(germs, dtype=numpy.int32).reshape(len(germs), len(at))))
    out = set()
    nodes = 0
    partial = numpy.full(npts, -1, dtype=numpy.int32)

    def rec(level):
        nonlocal nodes
        nodes += 1
        if nodes > budget.sections:
            raise ResourceError(
                "section search of %d nodes over budget %d" % (nodes, budget.sections)
            )
        if level == len(levels):
            out.add(tuple(partial.tolist()))
            return
        at, germs = levels[level]
        seen = partial[at]
        for germ in germs[((germs == seen) | (seen < 0)).all(axis=1)]:
            partial[at] = germ
            rec(level + 1)
        partial[at] = seen

    rec(0)
    return sorted(out)


def eta_check(alg, sheaf=None, budget=None):
    """eta(a) = sigma_a: verify injectivity and surjectivity onto the
    continuous sections.  Preservation of the sheaf-reduct operations needs
    no check: each projection row is a congruence of the reduct, so
    f(sigma_a, sigma_b) = sigma_f(a,b) pointwise, and a bijection onto the
    sections makes them the algebra Gamma with eta an isomorphism.

    Returns (bool, details) where details carries the failure witness, or
    the section count and mapping[a], the index of sigma_a among them."""
    sheaf = sheaf or dual_sheaf(alg, budget=budget)
    return _eta(sheaf, sections(sheaf, budget=budget))


def _eta(sheaf, secs):
    """`eta_check` on the sheaf's continuous sections `secs`, sorted."""
    n = sheaf.alg.size
    images = list(map(tuple, sheaf.projections.T.tolist()))
    if len(set(images)) != n:
        dup = [(a, b) for a in range(n) for b in range(a + 1, n) if images[a] == images[b]]
        return False, {"injective": False, "witness": dup[0]}
    if set(images) != set(secs):
        missing = sorted(set(secs) - set(images))
        return False, {"surjective": False, "witness": missing[0] if missing else None}
    index = {s: i for i, s in enumerate(secs)}
    return True, {"sections": len(secs), "mapping": [index[s] for s in images]}


# ---------------------------------------------------------------------------
# regularity classes
# ---------------------------------------------------------------------------


def regularity(alg, sheaf=None, budget=None):
    """(regular?, strongly_regular?, congruence_strongly_regular?)
    quantified over the prime ideals of Zd, the points of `sheaf`, which
    is `dual_sheaf(alg)` when not given.  The first two are
    `_ideal_regularity`'s.  Co(x) is maximal exactly when its quotient,
    the stalk at x, is simple, so the third reads the stalks."""
    sheaf = sheaf or dual_sheaf(alg, budget=budget)
    regular, strongly = _ideal_regularity(sheaf, budget)
    return {
        "regular": regular,
        "strongly_regular": strongly,
        "congruence_strongly_regular": all(map(is_simple, sheaf.stalks)),
    }


def _ideal_regularity(sheaf, budget):
    """(regular?, strongly_regular?): whether Ig(x) is prime, and whether
    it is maximal, for every point x.

    'Prime ideal in A' is primality inside the kernel-ideal family
    (J cap K <= I forces J <= I or K <= I): the meet-splitting reading
    fails for operator algebras where two operator-free elements can meet
    to zero, and would falsify strongly-regular => regular.  That scan
    takes |proper| * |ideals|^2 pairs; more than `Budget.closure` of them
    is a ResourceError before it starts."""
    budget = budget or budgets.from_env()
    reduct = sheaf.alg
    ops = reduct.extra_operator_names()
    all_ideals = enumerate_ideals(reduct, ops, range(reduct.size), budget=budget)
    proper = [i for i in all_ideals if len(i) < reduct.size]
    pairs = len(proper) * len(all_ideals) ** 2
    if pairs > budget.closure:
        raise ResourceError(
            "regularity scan of %d ideal pairs over closure budget %d" % (pairs, budget.closure)
        )
    maximal_ideals = {i for i in proper if not any(i < j for j in proper)}
    prime_family = set()
    for ideal in proper:
        if all(
            not (j & k <= ideal) or j <= ideal or k <= ideal
            for j in all_ideals
            for k in all_ideals
        ):
            prime_family.add(ideal)
    generated = [ideal_generate(reduct, x, ops) for x in sheaf.points]
    return all(ig in prime_family for ig in generated), all(ig in maximal_ideals for ig in generated)


def strongly_regular_equiv_check(alg, budget=None):
    """In the relatively complemented case the three conditions
    (strong regularity, Zd-generated principal ideals, semisimple stalk
    space) are equivalent; evaluated independently on one dual sheaf and
    compared.  A one-element stalk counts as semisimple, a stalk of more
    elements when it is simple.

    Returns {"skipped": reason} when the precondition fails."""
    if not is_relatively_complemented(alg):
        return {"skipped": "not relatively complemented"}
    sheaf = dual_sheaf(alg, budget=budget)
    reduct, ops = sheaf.alg, sheaf.alg.extra_operator_names()
    cond1 = _ideal_regularity(sheaf, budget)[1]
    zd_ideals = {ideal_generate(reduct, [z], ops) for z in sheaf.zd}
    cond2 = all(ideal_generate(reduct, [a], ops) in zd_ideals for a in range(alg.size))
    cond3 = all(q.size == 1 or is_simple(q) for q in sheaf.stalks)
    return {
        "strongly_regular": cond1,
        "principal_ideals_zd_generated": cond2,
        "stalks_semisimple": cond3,
        "equivalent": cond1 == cond2 == cond3,
    }


# ---------------------------------------------------------------------------
# regular ideals <-> open sets
# ---------------------------------------------------------------------------


def _bits(rows):
    """Each row of a bool matrix as a bitmask, bit i for column i."""
    weights = numpy.array([1 << i for i in range(rows.shape[1])], dtype=object)
    return (rows.astype(object) @ weights).tolist()


def regular_ideals_open_sets(alg, sheaf=None, budget=None):
    """The two maps I |-> U[I] = union of supports and U |-> J[U] =
    {a : [sigma_a] <= U}; checks they are mutually inverse lattice
    isomorphisms between regular ideals and the opens of the base of
    `sheaf`, which is `dual_sheaf(alg)` when not given.

    Ideals and point sets are 0/1 matrices, so the regularity test, U, J
    and the order check are integer matrix products; opens are bitmasks.
    Once U maps the regular ideals one to one onto the opens and J undoes
    it, J maps every open to a regular ideal that U maps back to it, so
    that needs no check of its own."""
    sheaf = sheaf or dual_sheaf(alg, budget=budget)
    reduct = sheaf.alg
    n = reduct.size
    members = ideal_rows(reduct, reduct.extra_operator_names(), range(n), budget=budget).astype(int)
    outside = 1 - members
    within = members @ outside.T == 0  # [i, j]: ideal i inside ideal j
    zd = member_rows(n, [sheaf.zd]).astype(int)
    # Ig(i & Zd) is the meet of the ideals over i & Zd, so it is i when all hold i
    regular = (((members * zd) @ outside.T != 0) | within).all(axis=1)
    basis = _bits(~member_rows(n, sheaf.points)[:, list(sheaf.zd)].T)  # N_b for b in Zd
    opens = union_closure(basis)
    support = (sheaf.projections != sheaf.projections[:, [reduct.zero]]).astype(int)  # [x, a]
    kept = members[regular]
    image = (kept @ support.T > 0).astype(int)  # [i, x]: x in U of the i-th regular ideal
    forward = _bits(image)
    sizes = {"regular_ideals": len(kept), "opens": len(opens)}
    if set(forward) != opens:
        return {"isomorphism": False, "reason": "image mismatch", **sizes}
    if len(set(forward)) != len(kept):
        return {"isomorphism": False, "reason": "not injective", **sizes}
    back = (1 - image) @ support == 0  # [i, a]: a in J of the i-th image
    wrong = (back != kept.astype(bool)).any(axis=1)
    if wrong.any():
        witness = numpy.flatnonzero(kept[wrong.argmax()]).tolist()
        return {"isomorphism": False, "reason": "not inverse", "witness": witness, **sizes}
    order_ok = (within[regular][:, regular] == (image @ (1 - image).T == 0)).all()
    return {"isomorphism": bool(order_ok), **sizes}


def report(alg, budget=None, with_eta=True, with_regularity=True):
    """Sheaf report: base points, stalk sizes and section count, plus the
    eta verdict `with_eta` and the regularity triple `with_regularity`,
    all on one dual sheaf and its one section search.  A part that is
    not asked for is neither computed nor reported.  The stalk sizes are
    read off the projections, so only the regularity clause builds the
    stalk algebras."""
    sheaf = dual_sheaf(alg, budget=budget)
    secs = sections(sheaf, budget=budget)
    out = {
        "format": "reslat/1",
        "base_points": [sorted(p) for p in sheaf.points],
        "stalk_sizes": (sheaf.projections.max(axis=1) + 1).tolist(),  # classes are 0..k-1
        "section_count": len(secs),
    }
    if with_eta:
        out["eta_isomorphism"] = _eta(sheaf, secs)[0]
    if with_regularity:
        out["regularity"] = regularity(alg, sheaf, budget=budget)
    return out
