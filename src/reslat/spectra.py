"""Filters, prime/maximal spectra, the basic Zariski sets of Max, and
theory pairs with consistency and completion."""

from dataclasses import dataclass
from itertools import combinations

import numpy

from . import budgets
from .algebra import AxiomReport, bitmask, enumerate_closed, generate_closed, member_rows, splits
from .errors import DomainError, PreconditionError


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


def prime_filters(alg, sets):
    """The proper ones among `sets` that are prime under join, in order."""
    proper = [f for f in sets if alg.zero not in f]
    return [f for f, ok in zip(proper, splits(alg, "join", member_rows(alg.size, proper))) if ok]


def _filters(alg, op, bound=None, budget=None):
    """The up-sets holding 1 closed under op, the improper one included,
    as frozensets sorted by bitmask: the filters under star, the lattice
    filters under meet.  An algebra larger than `bound` (default
    `Budget.spectrum`) is a ResourceError."""
    budget = budget or budgets.from_env()
    what = "%sfilter enumeration on %r" % ("" if op == "star" else "lattice ", alg.name)
    budgets.check_size(what, alg.size, bound, budget.spectrum)
    return enumerate_closed(alg, range(alg.size), True, alg.one, [op])


def _of_kind(alg, filters, kind):
    """The proper, prime or maximal filters among `filters`, as Filters."""
    proper = [f for f in filters if alg.zero not in f]
    if kind == "all-proper":
        chosen = proper
    elif kind == "prime":
        chosen = prime_filters(alg, proper)
    elif kind == "maximal":
        chosen = [f for f in proper if not any(f < g for g in proper)]
    else:
        raise DomainError("unknown filter kind %r" % kind)
    return [Filter(alg, f) for f in chosen]


def enumerate_filters(alg, kind="all-proper", bound=None, budget=None):
    """Exhaustive filter enumeration (star-closed up-sets containing 1).

    kind: all-proper | prime | maximal.  Output sorted by bitmask.
    """
    return _of_kind(alg, _filters(alg, "star", bound, budget), kind)


# ---------------------------------------------------------------------------
# spectra and the basic Zariski sets of Max
# ---------------------------------------------------------------------------


class SpectrumSpace:
    """Spec(B) and Max(B) with the basic Zariski sets of Max, read off one
    enumeration of the filters.

    `vm` is V_M as a read-only bool matrix: [a, i] says whether the i-th
    maximal point holds a.  D_M(a), its complement, is a frozenset of
    indices into max_points."""

    def __init__(self, alg, filters):
        self.alg = alg
        self.filters = filters  # every filter, improper included, sorted by bitmask
        self.prime_points = _of_kind(alg, filters, "prime")
        self.max_points = _of_kind(alg, filters, "maximal")
        self.vm = member_rows(alg.size, [f.members for f in self.max_points]).T
        self.vm.flags.writeable = False
        self.basis = {a: frozenset(numpy.flatnonzero(~vm).tolist()) for a, vm in enumerate(self.vm)}

    def DM(self, a):
        return self.basis[a]

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
    return SpectrumSpace(alg, _filters(alg, "star", bound, budget))


def prime_lattice_filters(alg, bound=None, budget=None):
    """Prime filters of the bounded-lattice reduct (meet-closed up-sets).

    These separate the order in any distributive algebra: a <= b iff every
    prime lattice filter containing a contains b.  Star-filters cannot do
    this on chains with nilpotents (Fl{1/2} is improper in luk:3)."""
    return prime_filters(alg, _filters(alg, "meet", bound, budget))


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

    V_M and item (iii)'s filters are read off `space`, the spectrum of
    `alg`, which is built when not given.  Point sets are bool rows over
    the points and each identity is one broadcast.  An identity's
    witness is its first failure in the order of the statement's loops:
    pairs (a, b), then subsets, each in lexicographic order; violations
    are listed in the order those loops first meet them."""
    sp = space or zariski_sets(alg, bound=bound, budget=budget)
    lat_primes = prime_lattice_filters(alg, bound=bound, budget=budget)
    n = alg.size
    vm = sp.vm  # row a: V_M(a)
    dm = ~vm
    vl = member_rows(n, lat_primes).T
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
    filters = member_rows(n, [f for f in sp.filters if len(f) < n])
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
    vm = (space or zariski_sets(alg, budget=budget)).vm  # row a: V_M(a)
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


def upset(alg, a):
    return frozenset(numpy.flatnonzero(alg.order[a]).tolist())
