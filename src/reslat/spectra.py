"""Filters, prime/maximal spectra, the Zariski topology on Max, and
theory pairs with consistency, completion and saturation."""

from dataclasses import dataclass
from itertools import combinations

import numpy

from . import budgets
from .algebra import (
    AxiomReport,
    bitmask,
    enumerate_closed,
    generate_closed,
    splits,
    union_closure,
)
from .errors import DomainError, PreconditionError, SignatureError


@dataclass(frozen=True)
class Filter:
    """A star-closed upward-closed subset of a finite algebra."""

    alg: object
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))

    @property
    def proper(self):
        return self.alg.zero not in self.members

    def bitmask(self):
        return bitmask(self.members)

    def __contains__(self, x):
        return x in self.members

    def __le__(self, other):
        return self.members <= other.members

    def sorted_members(self):
        return sorted(self.members)


def generate_filter(alg, seed):
    """Fl: least filter containing the seed (may be improper)."""
    return Filter(alg, generate_closed(alg, seed, True, alg.one, ["star"]))


def is_prime_filter(alg, members):
    return alg.zero not in members and splits(alg, "join", members)


def enumerate_filters(alg, kind="all-proper", bound=None, budget=None):
    """Exhaustive filter enumeration (star-closed up-sets containing 1).

    kind: all-proper | prime | maximal.  Output sorted by bitmask.
    """
    budget = budget or budgets.from_env()
    budgets.check_size("filter enumeration on %r" % alg.name, alg.size, bound, budget.spectrum)
    filters = enumerate_closed(alg, range(alg.size), True, alg.one, ["star"])
    proper = [f for f in filters if alg.zero not in f]
    if kind == "all-proper":
        chosen = proper
    elif kind == "prime":
        chosen = [f for f in proper if is_prime_filter(alg, f)]
    elif kind == "maximal":
        chosen = [
            f for f in proper if not any(f < g for g in proper)
        ]
    else:
        raise DomainError("unknown filter kind %r" % kind)
    return [Filter(alg, f) for f in chosen]


# ---------------------------------------------------------------------------
# spectra and the Zariski topology on Max
# ---------------------------------------------------------------------------


class SpectrumSpace:
    """Spec(B) and Max(B) with the basic Zariski sets.

    Point sets are returned as frozensets of indices into max_points
    (or prime_points for the unrestricted V/D variants).
    """

    def __init__(self, alg, prime_points, max_points):
        self.alg = alg
        self.prime_points = prime_points
        self.max_points = max_points
        self._vm = {
            a: frozenset(i for i, f in enumerate(max_points) if a in f.members)
            for a in range(alg.size)
        }
        full = frozenset(range(len(max_points)))
        self.basis = {a: full - self._vm[a] for a in range(alg.size)}
        self._v = {
            a: frozenset(i for i, f in enumerate(prime_points) if a in f.members)
            for a in range(alg.size)
        }

    def V(self, a):
        return self._v[a]

    def D(self, a):
        return frozenset(range(len(self.prime_points))) - self._v[a]

    def VM(self, a):
        return self._vm[a]

    def DM(self, a):
        return self.basis[a]

    def VM_set(self, xs):
        out = frozenset(range(len(self.max_points)))
        for a in xs:
            out &= self.VM(a)
        return out

    def DM_set(self, xs):
        return frozenset(range(len(self.max_points))) - self.VM_set(xs)

    # finite topology on Max generated by the D_M basis
    def opens(self):
        return union_closure(self.basis.values())

    def interior(self, s):
        out = frozenset()
        for b in set(self.basis.values()):
            if b <= s:
                out |= b
        return out

    def closure(self, s):
        full = frozenset(range(len(self.max_points)))
        return full - self.interior(full - s)

    def nowhere_dense(self, s):
        return not self.interior(self.closure(s))

    def is_discrete(self):
        pts = frozenset(range(len(self.max_points)))
        return all(self.interior(frozenset([p])) for p in pts)

    def report(self):
        points = []
        max_mask = {f.members for f in self.max_points}
        for f in self.prime_points:
            points.append(
                {
                    "members": f.sorted_members(),
                    "prime": True,
                    "maximal": f.members in max_mask,
                }
            )
        return {
            "format": "reslat/1",
            "points": points,
            "basis": {
                str(a): sorted(self.basis[a]) for a in range(self.alg.size)
            },
        }


def zariski_sets(alg, bound=None, budget=None):
    primes = enumerate_filters(alg, "prime", bound=bound, budget=budget)
    maxes = enumerate_filters(alg, "maximal", bound=bound, budget=budget)
    return SpectrumSpace(alg, primes, maxes)


def prime_lattice_filters(alg, bound=None, budget=None):
    """Prime filters of the bounded-lattice reduct (meet-closed up-sets).

    These separate the order in any distributive algebra: a <= b iff every
    prime lattice filter containing a contains b.  Star-filters cannot do
    this on chains with nilpotents (Fl{1/2} is improper in luk:3)."""
    budget = budget or budgets.from_env()
    what = "lattice filter enumeration on %r" % alg.name
    budgets.check_size(what, alg.size, bound, budget.spectrum)
    lattice_filters = enumerate_closed(alg, range(alg.size), True, alg.one, ["meet"])
    return [f for f in lattice_filters if alg.zero not in f and is_prime_filter(alg, f)]


def _members(alg, sets):
    """Bool matrix whose entry [a, i] says whether element a lies in the
    i-th set."""
    out = numpy.zeros((alg.size, len(sets)), dtype=bool)
    for i, members in enumerate(sets):
        out[list(members), i] = True
    return out


def verify_dm_lemma(alg, space=None, subset_size=2, bound=None, budget=None):
    """The D_M/V_M identities that can fail, checked exhaustively.

    Items (i), (ii), (iii) and (v) quantify over Max as stated.  The
    backward half of (vi) is order separation and is checked over the
    prime filters of the lattice reduct, the only spectrum that separates
    on chains with nilpotent elements.  Item (iii) reads "Fl(xs) is
    improper" as "no filter but the whole algebra contains xs".  Two items
    hold by construction and are not checked: (iv), as D_M of a set is the
    complement of an intersection of V_M sets, so (iv) is De Morgan's law
    on point sets; and the forward half of (vi), as every filter the
    enumeration lists is an up-set of `order`.

    Point sets are bool rows over the points and each identity is one
    broadcast.  An identity's witness is its first failure in the order
    of the statement's loops: pairs (a, b), then subsets, each in
    lexicographic order; violations are listed in the order those loops
    first meet them."""
    sp = space or zariski_sets(alg, bound=bound, budget=budget)
    lat_primes = prime_lattice_filters(alg, bound=bound, budget=budget)
    n = alg.size
    vm = _members(alg, [f.members for f in sp.max_points])  # row a: V_M(a)
    dm = ~vm
    vl = _members(alg, lat_primes)
    join, meet, star = (alg.np_table(name) for name in ("join", "meet", "star"))
    pairs = [
        ("i-dm-join", ((dm[:, None] & dm[None]) == dm.take(join, 0)).all(-1)),
        ("ii-dm-meet", ((dm[:, None] | dm[None]) == dm.take(meet, 0)).all(-1)
         & (dm.take(meet, 0) == dm.take(star, 0)).all(-1)),
        ("v-vm-meet", ((vm[:, None] & vm[None]) == vm.take(meet, 0)).all(-1)),
        # [a, b]: a <= b iff no lattice prime holds a but not b
        ("vi-separation-iff", alg.order == ~(vl[:, None] & ~vl[None]).any(-1)),
    ]
    failed = [(int((~ok).argmax()), i, aid) for i, (aid, ok) in enumerate(pairs) if not ok.all()]
    violations = [(aid, divmod(k, n)) for k, _, aid in sorted(failed)]
    closed = enumerate_closed(alg, range(n), True, alg.one, ["star"])
    filters = _members(alg, [f for f in closed if len(f) < n]).T
    for k in range(1, subset_size + 1):
        at = numpy.array(list(combinations(range(n), k)), dtype=numpy.intp).reshape(-1, k)
        improper = numpy.empty(len(at), dtype=bool)
        step = max(1, (1 << 22) // max(1, len(filters) * k))  # bounds the broadcast
        for lo in range(0, len(at), step):
            improper[lo : lo + step] = ~filters[:, at[lo : lo + step]].all(-1).any(0)
        ok = ~vm[at].all(axis=1).any(-1) == improper
        if not ok.all():
            violations.append(("iii-dm-cover", tuple(at[int((~ok).argmax())].tolist())))
            break
    return AxiomReport("dm-lemma", not violations, violations)


def nowhere_dense_check(alg, space=None, budget=None):
    """Theorem d(ii): the residual set of every finite join or meet
    decomposition is nowhere dense in Max.  The residual of a = p1 v ... v pk
    is V_M(a) minus every V_M(pi); that of a = p1 ^ ... ^ pk is the
    intersection of the V_M(pi) minus V_M(a).

    On a finite Hausdorff Max, which criterion 5 checks pair by pair, a
    nowhere-dense set is empty, so emptiness is the test.  Two parts are
    enough: a k-part residual lies inside the union of the 2-part residuals
    of its steps (as p1 v ... v pk = p1 v (p2 v ... v pk)), on any tables.
    Returns (True, None), or (False, (mode, (p1, p2))) for the first
    nonempty residual, join before meet, pairs in lexicographic order."""
    sp = space or zariski_sets(alg, budget=budget)
    vm = _members(alg, [f.members for f in sp.max_points])  # row a: V_M(a)
    residuals = (
        ("join", vm.take(alg.np_table("join"), 0) & ~(vm[:, None] | vm[None])),
        ("meet", vm[:, None] & vm[None] & ~vm.take(alg.np_table("meet"), 0)),
    )
    for mode, residual in residuals:
        bad = residual.any(-1)
        if bad.any():
            return False, (mode, divmod(int(bad.argmax()), alg.size))
    return True, None


def hausdorff_witness(alg, m_filter, n_filter, space=None):
    """Separating basic opens for two distinct maximal filters, built the
    way the compact-Hausdorff proof builds them: a = x=>y, b = y=>x."""
    if m_filter.members == n_filter.members:
        raise DomainError("filters must be distinct")
    xs = sorted(m_filter.members - n_filter.members)
    ys = sorted(n_filter.members - m_filter.members)
    if not xs or not ys:
        raise DomainError("maximal filters must be incomparable")
    x, y = xs[0], ys[0]
    a, b = alg.imp(x, y), alg.imp(y, x)
    sp = space or zariski_sets(alg)
    im = next(i for i, f in enumerate(sp.max_points) if f.members == m_filter.members)
    jn = next(i for i, f in enumerate(sp.max_points) if f.members == n_filter.members)
    if im not in sp.DM(a) or jn not in sp.DM(b) or (sp.DM(a) & sp.DM(b)):
        raise PreconditionError("separation construction failed; algebra not prelinear?")
    return a, b


# ---------------------------------------------------------------------------
# theory pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryPair:
    """A pair (Gamma, Delta) of element subsets of a finite algebra."""

    alg: object
    gamma: frozenset
    delta: frozenset

    def __post_init__(self):
        object.__setattr__(self, "gamma", frozenset(self.gamma))
        object.__setattr__(self, "delta", frozenset(self.delta))

    def is_complete(self):
        return self.gamma | self.delta == frozenset(range(self.alg.size))


def pair_consistent(tp):
    """No finite meet of Gamma lies below a finite join of Delta.

    Monotonicity makes the single comparison meet(Gamma) <= join(Delta)
    (empty meet = 1, empty join = 0) equivalent to the subset scan.
    """
    alg = tp.alg
    return not alg.leq(alg.meet_all(sorted(tp.gamma)), alg.join_all(sorted(tp.delta)))


def pair_complete_extension(tp, record_steps=False):
    """Extend a consistent pair to a complete one, inserting elements in
    ascending index order; ties (both sides consistent) go to Gamma."""
    alg = tp.alg
    if not pair_consistent(tp):
        raise PreconditionError("pair is inconsistent")
    gamma, delta = set(tp.gamma), set(tp.delta)
    steps = []
    for a in range(alg.size):
        if a in gamma or a in delta:
            continue
        g_ok = pair_consistent(TheoryPair(alg, gamma | {a}, delta))
        d_ok = pair_consistent(TheoryPair(alg, gamma, delta | {a}))
        if not (g_ok or d_ok):
            # contradicts the extension dichotomy; cannot happen in a lattice
            raise PreconditionError("extension dichotomy failed at %s" % alg.label(a))
        if g_ok:
            gamma.add(a)
            side = "gamma"
        else:
            delta.add(a)
            side = "delta"
        steps.append((a, side, g_ok, d_ok))
    out = TheoryPair(alg, frozenset(gamma), frozenset(delta))
    if record_steps:
        return out, steps
    return out


def pair_saturated(tp, alg=None):
    """Saturation: c_j a in Gamma demands a witness substitution instance.

    Returns (True, None) or (False, (a, j)) with the first violation.
    """
    from .kripke import _tau_name, cylinder_indices, dimension_set, replacement  # avoids a cycle

    alg = alg or tp.alg
    dims = cylinder_indices(alg)
    if not dims:
        raise SignatureError("algebra carries no cylindrifier tables")

    for a in range(alg.size):
        dims_a = dimension_set(alg, a)
        for j in dims:
            cja = alg.apply("c_%d" % j, a)
            if cja not in tp.gamma:
                continue
            witnessed = False
            for k in dims:
                if k in dims_a:
                    continue
                name = _tau_name(replacement(len(dims), j, k))
                if name not in alg.signature:
                    raise SignatureError("missing substitution table %r" % name)
                if alg.apply(name, a) in tp.gamma:
                    witnessed = True
                    break
            if not witnessed:
                return False, (a, j)
    return True, None


def upset(alg, a):
    return frozenset(numpy.flatnonzero(alg.order[a]).tolist())
