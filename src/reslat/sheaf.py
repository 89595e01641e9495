"""Dual sheaves of finite lattices with operators: zero-dimensional part,
base space of prime ideals, stalks as point-quotients, germ-continuous
sections, the eta isomorphism, regularity classes, and the regular-ideals /
open-sets correspondence.

Ideals here are congruence-kernel style: the ideals of `reslat.amalgam`
(downward closed, closed under oplus when present, else join), closed
also under the algebra's operators (`extra_operator_names`), the notion
whose primes carry the duality.  `amalgam.enumerate_ideals` lists them
and `ideal_generate` generates them; congruences come from
`reslat.amalgam` too.
"""

from dataclasses import dataclass

import numpy

from . import budgets
from .algebra import FiniteAlgebra, bitmask, splits, union_closure
from .amalgam import (
    all_congruences,
    enumerate_ideals,
    ideal_congruence,
    ideal_generate,
    is_relatively_complemented,
    partition_leq,
    quotient,
)
from .errors import DomainError, ResourceError
from .free import _RowKeys, _search


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
    size = len(set(subuniverse))
    return [
        ideal
        for ideal in enumerate_ideals(alg, alg.extra_operator_names(), subuniverse, budget=budget)
        if len(ideal) < size and splits(alg, "meet", ideal, subuniverse)
    ]


# ---------------------------------------------------------------------------
# the dual sheaf
# ---------------------------------------------------------------------------


@dataclass
class DualSheaf:
    alg: object  # the lattice-with-operators reduct the duality acts on
    zd: tuple  # Zd, the elements every operator fixes
    points: list  # prime ideals of Zd (frozensets of alg elements)
    stalks: list  # FiniteAlgebra per point
    projections: list  # per point: alg element -> stalk class index

    def section_of(self, a):
        return tuple(self.projections[i][a] for i in range(len(self.points)))

    def basic_open(self, b):
        """N_b = points whose ideal misses b (b ranges over Zd)."""
        return frozenset(i for i, x in enumerate(self.points) if b not in x)

    def opens(self):
        return union_closure(self.basic_open(b) for b in self.zd)

    def support(self, a):
        """[sigma_a] = {x : sigma_a(x) != 0_x}."""
        return frozenset(
            i
            for i in range(len(self.points))
            if self.projections[i][a] != self.stalks[i].zero
        )


def dual_sheaf(alg, budget=None):
    """Base space = prime ideals of Zd; stalks = reduct / Co(point),
    with Co the reduct congruence collapsing the point to 0."""
    reduct = sheaf_reduct(alg)
    zd = zero_dim(reduct)
    points = prime_ideals_of(reduct, zd, budget)
    stalks, projections = [], []
    for x in points:
        q, proj = quotient(reduct, ideal_congruence(reduct, x), name="stalk")
        stalks.append(q)
        projections.append(proj)
    return DualSheaf(reduct, zd, points, stalks, projections)


def sections(sheaf, budget=None):
    """All germ-continuous sections: sigma is continuous when it agrees
    with some principal section sigma_a on a basic neighbourhood of every
    point.

    Search branches over principal germs (each choice pins the whole
    minimal neighbourhood of a point), which keeps the walk close to the
    actual section count instead of the raw product of stalk sizes.
    Without points the one section is the empty tuple."""
    budget = budget or budgets.from_env()
    alg = sheaf.alg
    npts = len(sheaf.points)
    # minimal basic neighbourhood of each point: meet of {b in Zd : b not in x}
    min_nbhd = []
    for x in sheaf.points:
        acc = alg.meet_all(b for b in sheaf.zd if b not in x)
        min_nbhd.append(tuple(sorted(sheaf.basic_open(acc))))
    principal = [sheaf.section_of(a) for a in range(alg.size)]
    germs = [
        sorted({tuple(pr[q] for q in min_nbhd[i]) for pr in principal})
        for i in range(npts)
    ]
    out = set()
    nodes = 0

    def rec(i, partial):
        nonlocal nodes
        nodes += 1
        if nodes > budget.sections:
            raise ResourceError(
                "section search of %d nodes over budget %d" % (nodes, budget.sections)
            )
        if i == npts:
            out.add(tuple(partial[q] for q in range(npts)))
            return
        nb = min_nbhd[i]
        for patt in germs[i]:
            if any(q in partial and partial[q] != v for q, v in zip(nb, patt)):
                continue
            added = []
            for q, v in zip(nb, patt):
                if q not in partial:
                    partial[q] = v
                    added.append(q)
            rec(i + 1, partial)
            for q in added:
                del partial[q]

    rec(0, {})
    return sorted(out)


def section_algebra(sheaf, secs=None, budget=None):
    """Pointwise operations on the continuous sections `secs` (default:
    all of them), which are sorted and distinct, as `sections` returns
    them.  Sections are packed into `free._RowKeys` keys, so a section's
    key order is its index; each op is applied to the keys at once over
    the stalks' tables.  The first op, in signature order, with a value
    that is not a section is a DomainError."""
    secs = secs if secs is not None else sections(sheaf, budget=budget)
    if not secs:  # then no constant has a section as its value
        first = next(name for name, ar in sheaf.alg.signature.ops if ar == 0)
        raise DomainError("sections not closed under constant %r" % first)
    index = {s: i for i, s in enumerate(secs)}
    keys = _RowKeys([q.size for q in sheaf.stalks])
    known = keys.encode(secs)
    rows = keys.decode(known)
    tables = {}
    for name, ar in sheaf.alg.signature.ops:
        if ar == 0:
            found = keys.encode([q.const(name) for q in sheaf.stalks])
        else:
            shifted = keys.shifted([q.np_table(name) for q in sheaf.stalks])
            found = keys.apply([shifted], rows, None if ar == 1 else rows)[0]
        at = _search(known, found)
        if not (at < len(secs)).all() or (known[:, at] != found).any():
            kind = "constant " if ar == 0 else ""
            raise DomainError("sections not closed under %s%r" % (kind, name))
        tables[name] = int(at[0]) if ar == 0 else at.reshape((len(secs),) * ar)
    return FiniteAlgebra("Gamma(%s)" % sheaf.alg.name, len(secs), sheaf.alg.signature, tables), index


def eta_check(alg, sheaf=None, budget=None):
    """eta(a) = sigma_a: verify injectivity, surjectivity onto the
    continuous sections, and preservation of every sheaf-reduct operation.

    Returns (bool, details) where details carries the failure witness."""
    sheaf = sheaf or dual_sheaf(alg, budget=budget)
    return _eta(sheaf, sections(sheaf, budget=budget), budget)


def _eta(sheaf, secs, budget):
    """`eta_check` on the sheaf's continuous sections `secs`."""
    reduct = sheaf.alg
    images = [sheaf.section_of(a) for a in range(reduct.size)]
    if len(set(images)) != reduct.size:
        dup = [
            (a, b)
            for a in range(reduct.size)
            for b in range(a + 1, reduct.size)
            if images[a] == images[b]
        ]
        return False, {"injective": False, "witness": dup[0]}
    if set(images) != set(secs):
        missing = sorted(set(secs) - set(images))
        return False, {"surjective": False, "witness": missing[0] if missing else None}
    gamma, index = section_algebra(sheaf, secs, budget=budget)
    mapping = [index[images[a]] for a in range(reduct.size)]
    from .algebra import is_homomorphism

    if not is_homomorphism(reduct, gamma, mapping):
        return False, {"homomorphism": False}
    return True, {"sections": len(secs), "mapping": mapping}


# ---------------------------------------------------------------------------
# regularity classes
# ---------------------------------------------------------------------------


def regularity(alg, sheaf=None, budget=None):
    """(regular?, strongly_regular?, congruence_strongly_regular?)
    quantified over the prime ideals of Zd, the points of `sheaf`, which
    is `dual_sheaf(alg)` when not given.

    'Prime ideal in A' is primality inside the kernel-ideal family
    (J cap K <= I forces J <= I or K <= I): the meet-splitting reading
    fails for operator algebras where two operator-free elements can meet
    to zero, and would falsify strongly-regular => regular.  That scan
    takes |proper| * |ideals|^2 pairs; more than `Budget.closure` of them
    is a ResourceError before it starts."""
    budget = budget or budgets.from_env()
    sheaf = sheaf or dual_sheaf(alg, budget=budget)
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
    congs = all_congruences(reduct, budget=budget)
    proper_congs = [t for t in congs if len(set(t)) > 1]
    maximal_congs = {
        t
        for t in proper_congs
        if not any(t != u and partition_leq(t, u) for u in proper_congs)
    }
    regular = True
    strongly = True
    cong_strongly = True
    for x in sheaf.points:
        ig = ideal_generate(reduct, x, ops)
        if ig not in prime_family:
            regular = False
        if ig not in maximal_ideals:
            strongly = False
        if ideal_congruence(reduct, x) not in maximal_congs:
            cong_strongly = False
    return {
        "regular": regular,
        "strongly_regular": strongly,
        "congruence_strongly_regular": cong_strongly,
    }


def strongly_regular_equiv_check(alg, budget=None):
    """In the relatively complemented case the three conditions
    (strong regularity, Zd-generated principal ideals, semisimple stalk
    space) are equivalent; evaluated independently on one dual sheaf and
    compared.

    Returns {"skipped": reason} when the precondition fails."""
    if not is_relatively_complemented(alg):
        return {"skipped": "not relatively complemented"}
    sheaf = dual_sheaf(alg, budget=budget)
    reduct, ops = sheaf.alg, sheaf.alg.extra_operator_names()
    cond1 = regularity(alg, sheaf, budget=budget)["strongly_regular"]
    zd_ideals = {ideal_generate(reduct, [z], ops) for z in sheaf.zd}
    cond2 = all(ideal_generate(reduct, [a], ops) in zd_ideals for a in range(alg.size))
    cond3 = all(
        q.size == 1 or len(all_congruences(q, budget=budget)) == 2
        for q in sheaf.stalks
    )
    return {
        "strongly_regular": cond1,
        "principal_ideals_zd_generated": cond2,
        "stalks_semisimple": cond3,
        "equivalent": cond1 == cond2 == cond3,
    }


# ---------------------------------------------------------------------------
# regular ideals <-> open sets
# ---------------------------------------------------------------------------


def regular_ideals_open_sets(alg, sheaf=None, budget=None):
    """The two maps I |-> U[I] = union of supports and U |-> J[U] =
    {a : [sigma_a] <= U}; checks they are mutually inverse lattice
    isomorphisms between regular ideals and the opens of the base of
    `sheaf`, which is `dual_sheaf(alg)` when not given."""
    sheaf = sheaf or dual_sheaf(alg, budget=budget)
    reduct = sheaf.alg
    zset = set(sheaf.zd)
    every = range(reduct.size)
    ideals = enumerate_ideals(reduct, reduct.extra_operator_names(), every, budget=budget)
    # Ig(i & Zd) is the meet of the ideals over i & Zd, so it is i when all hold i
    regular = [i for i in ideals if all(i <= j for j in ideals if i & zset <= j)]
    opens = {bitmask(u) for u in sheaf.opens()}
    support = [bitmask(sheaf.support(a)) for a in range(reduct.size)]  # point bitmasks

    def U_of(ideal):
        u = 0
        for a in ideal:
            u |= support[a]
        return u

    def J_of(u):
        return frozenset(a for a in range(reduct.size) if not support[a] & ~u)

    forward = {i: U_of(i) for i in regular}
    if set(forward.values()) != opens:
        return {"isomorphism": False, "reason": "image mismatch",
                "regular_ideals": len(regular), "opens": len(opens)}
    if len(set(forward.values())) != len(regular):
        return {"isomorphism": False, "reason": "not injective",
                "regular_ideals": len(regular), "opens": len(opens)}
    for i in regular:
        if J_of(forward[i]) != i:
            return {"isomorphism": False, "reason": "not inverse", "witness": sorted(i),
                    "regular_ideals": len(regular), "opens": len(opens)}
    regular_set = set(regular)
    for u in sorted(opens):
        j = J_of(u)
        if j not in regular_set or U_of(j) != u:
            return {"isomorphism": False, "reason": "J[U] not regular or not inverse",
                    "witness": [i for i in range(len(sheaf.points)) if u >> i & 1],
                    "regular_ideals": len(regular), "opens": len(opens)}
    order_ok = all(
        (i1 <= i2) == (not forward[i1] & ~forward[i2]) for i1 in regular for i2 in regular
    )
    return {
        "isomorphism": order_ok,
        "regular_ideals": len(regular),
        "opens": len(opens),
    }


def report(alg, budget=None, with_eta=True, with_regularity=True):
    """Sheaf report: base points, stalk sizes and section count, plus the
    eta verdict `with_eta` and the regularity triple `with_regularity`,
    all on one dual sheaf and its one section search.  A part that is
    not asked for is neither computed nor reported."""
    sheaf = dual_sheaf(alg, budget=budget)
    secs = sections(sheaf, budget=budget)
    out = {
        "format": "reslat/1",
        "base_points": [sorted(p) for p in sheaf.points],
        "stalk_sizes": [q.size for q in sheaf.stalks],
        "section_count": len(secs),
    }
    if with_eta:
        out["eta_isomorphism"] = _eta(sheaf, secs, budget)[0]
    if with_regularity:
        out["regularity"] = regularity(alg, sheaf, budget=budget)
    return out
