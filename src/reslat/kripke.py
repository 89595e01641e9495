"""Finite Kripke systems and their set algebras.

Elements of a set algebra are monotone world-indexed 0/1 valuations on
growing assignment sets; the Heyting operations, cylindrifiers c_j,
co-quantifiers q_j, substitutions s_tau and diagonals d_ij are computed
from the defining sup/inf clauses.  Elements are canonically ordered by
their bit pattern over a fixed enumeration of the assignment positions.
"""

import json
import random
from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations
from itertools import product as iproduct

import numpy as np

from . import budgets
from .algebra import (
    _GRID_CHUNK,
    CORE_OPS,
    AxiomReport,
    FiniteAlgebra,
    Signature,
    _axiom_failures,
    load_json,
)
from .errors import (
    ClosureError,
    InternalError,
    InvalidSpecError,
    ResourceError,
    SignatureError,
)


class KripkeSystem:
    """Preordered worlds with nested base sets and assignment sets."""

    def __init__(self, worlds, leq, base, assignments, alpha):
        self.worlds = list(range(worlds)) if isinstance(worlds, int) else list(worlds)
        w = len(self.worlds)
        self.leq = tuple(tuple(bool(x) for x in row) for row in leq)
        if len(self.leq) != w or any(len(r) != w for r in self.leq):
            raise InvalidSpecError("leq must be a worlds x worlds matrix")
        self.alpha = int(alpha)
        if self.alpha < 1:
            raise InvalidSpecError("alpha must be positive")
        self.base = {k: tuple(sorted(base[k])) for k in range(w)}
        if assignments is None:
            self.assignments = {
                k: tuple(sorted(iproduct(self.base[k], repeat=self.alpha)))
                for k in range(w)
            }
        else:
            self.assignments = {
                k: tuple(sorted(tuple(a) for a in assignments[k])) for k in range(w)
            }
        self._validate()

    def _validate(self):
        w = len(self.worlds)
        for k in range(w):
            if not self.leq[k][k]:
                raise InvalidSpecError("preorder must be reflexive")
            for l in range(w):
                for m in range(w):
                    if self.leq[k][l] and self.leq[l][m] and not self.leq[k][m]:
                        raise InvalidSpecError("preorder must be transitive")
            if not self.base[k]:
                raise InvalidSpecError("base sets must be nonempty")
            base = set(self.base[k])
            for a in self.assignments[k]:
                if len(a) != self.alpha or any(x not in base for x in a):
                    raise InvalidSpecError("assignment %r invalid at world %d" % (a, k))
        for k in range(w):
            for l in range(w):
                if self.leq[k][l]:
                    if not set(self.base[k]) <= set(self.base[l]):
                        raise InvalidSpecError("base sets must grow along leq")
                    if not set(self.assignments[k]) <= set(self.assignments[l]):
                        raise InvalidSpecError("assignment sets must grow along leq")

    def world_count(self):
        return len(self.worlds)

    def total_assignments(self):
        return sum(len(self.assignments[k]) for k in range(self.world_count()))

    def to_json(self):
        return {
            "format": "reslat/1",
            "worlds": self.worlds,
            "leq": [[bool(x) for x in row] for row in self.leq],
            "base": {str(k): list(self.base[k]) for k in range(self.world_count())},
            "assignments": {
                str(k): [list(a) for a in self.assignments[k]]
                for k in range(self.world_count())
            },
            "alpha": self.alpha,
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data):
        """The system of a JSON object; a value of the wrong type or shape
        is an InvalidSpecError."""
        worlds, leq, alpha = data["worlds"], data["leq"], data["alpha"]
        if not isinstance(worlds, list):
            raise InvalidSpecError('"worlds" must be a list')
        if not (isinstance(leq, list) and all(
            isinstance(row, list) and all(isinstance(x, bool) for x in row) for row in leq
        )):
            raise InvalidSpecError('"leq" must be a matrix of booleans')
        if not _is_int(alpha):
            raise InvalidSpecError('"alpha" must be an integer')
        keys = {str(k) for k in range(len(worlds))}

        def per_world(name, what, entry_ok):
            value = data[name]
            if not (isinstance(value, dict) and set(value) == keys and all(
                isinstance(v, list) and all(entry_ok(x) for x in v) for v in value.values()
            )):
                raise InvalidSpecError(
                    '"%s" must map every world index to a list of %s' % (name, what)
                )
            return {int(k): v for k, v in value.items()}

        base = per_world("base", "integers", _is_int)
        assignments = None
        if data.get("assignments") is not None:
            assignments = per_world(
                "assignments",
                "integer lists",
                lambda a: isinstance(a, list) and all(map(_is_int, a)),
            )
        else:
            # the full function spaces are listed on construction: refuse
            # them over the budget before they are built
            total = sum(len(b) ** min(alpha, 64) for b in base.values())
            limit = budgets.from_env().kripke_assignments
            if total > limit:
                raise ResourceError(
                    "total assignment count of at least %d over budget %d" % (total, limit)
                )
        return cls(len(worlds), leq, base, assignments, alpha)

    @classmethod
    def load(cls, path):
        return load_json(path, cls.from_json)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def all_maps(alpha):
    """The full transformation semigroup on alpha indices."""
    return tuple(sorted(iproduct(range(alpha), repeat=alpha)))


def replacement(alpha, i, j):
    """[i|j]: sends i to j, identity elsewhere."""
    tau = list(range(alpha))
    tau[i] = j
    return tuple(tau)


def compose(sigma, tau):
    """(sigma o tau)(i) = sigma(tau(i)); matches s_sigma s_tau = s_{sigma o tau}."""
    return tuple(sigma[tau[i]] for i in range(len(tau)))


@dataclass(frozen=True)
class SemigroupG:
    """Transformations closed under composition, with identity and all
    replacements [i|j]; verified on construction."""

    alpha: int
    maps: tuple

    def __post_init__(self):
        ms = frozenset(self.maps)
        ident = tuple(range(self.alpha))
        if ident not in ms:
            raise InvalidSpecError("G must contain the identity")
        for i in range(self.alpha):
            for j in range(self.alpha):
                if replacement(self.alpha, i, j) not in ms:
                    raise InvalidSpecError("G must contain all replacements")
        for s in ms:
            for t in ms:
                if compose(s, t) not in ms:
                    raise InvalidSpecError("G must be composition closed")
        object.__setattr__(self, "maps", tuple(sorted(ms)))

    @classmethod
    @lru_cache(maxsize=8)
    def full(cls, alpha):
        """The full semigroup, one instance per alpha: its identities are built once."""
        return cls(alpha, all_maps(alpha))

    def __iter__(self):
        return iter(self.maps)

    @cached_property
    def generators(self):
        """A generating set of the non-identity maps, in sorted order: every
        map but the identity is a composite of generators.  Greedy and
        deterministic: the candidates are taken by decreasing rank (the
        permutations first), then in sorted order, and one is kept only if
        the composites of those kept so far do not give it.  For the full
        semigroup this yields permutations generating S_alpha and one map
        of rank alpha - 1, which together generate T_alpha (Howie,
        *Fundamentals of Semigroup Theory*, 1995, section 1.9)."""
        ident = tuple(range(self.alpha))
        kept, closed = [], set()
        for tau in sorted(self.maps, key=lambda m: (-len(set(m)), m)):
            if tau == ident or tau in closed:
                continue
            kept.append(tau)
            # words containing tau: tau itself and x o tau for the old
            # composites x, then right multiples by every generator
            frontier = [tau, *(compose(x, tau) for x in closed)]
            while frontier:
                x = frontier.pop()
                if x not in closed:
                    closed.add(x)
                    frontier.extend(compose(x, g) for g in kept)
        return tuple(sorted(kept))

    @cached_property
    def identities(self):
        """The identities between composites of unary maps in the derived
        and GPHA suites, per suite as (rows, aids, witnesses) in its loop
        order.  A row (u, v, w, x) states u o v = w o x over the rows of
        KripkeSetAlgebra.unary.  Both suites begin with the s-laws; the
        trivial instances tau2 = tau of 4-s-cyl-fuse and sigma = tau of
        gpha5 are left out."""
        alpha, g, maps = self.alpha, len(self.maps), self.maps
        ident, unit = 0, tuple(range(alpha))
        s = {tau: 1 + t for t, tau in enumerate(maps)}
        cb = [1 + g + m for m in range(1 << alpha)]  # c_(J) by the bitmask of J
        qb = [m + (1 << alpha) for m in cb]
        c, q = ([blocks[1 << j] for j in range(alpha)] for blocks in (cb, qb))

        def s_laws(unit_aid, aid):
            laws = [(unit_aid, unit, ident, s[unit], ident, ident)]
            return laws + [
                (aid, (x, y), s[x], s[y], ident, s[compose(x, y)]) for x in maps for y in maps
            ]

        derived = s_laws("3-s-id", "3-s-compose")
        for tau in maps:
            for i in range(alpha):
                for j in range(alpha):
                    tau2 = tau[:i] + (j,) + tau[i + 1 :]
                    if tau2 != tau and tau2 in s:
                        derived.append(("4-s-cyl-fuse", (tau, i, j), s[tau], c[i], s[tau2], c[i]))
            for j in range(alpha):
                if tau.count(j) == 1:
                    i = tau.index(j)
                    derived.append(("5-push-c", (tau, i, j), s[tau], c[i], c[j], s[tau]))
                    derived.append(("5-push-q", (tau, i, j), s[tau], q[i], q[j], s[tau]))
        for i in range(alpha):
            for j in range(alpha):
                sij, sji = s[replacement(alpha, i, j)], s[replacement(alpha, j, i)]
                if i != j:
                    derived.append(("6-c-absorb", (i, j), c[i], sij, ident, sij))
                    derived.append(("6-q-absorb", (i, j), q[i], sij, ident, sij))
                derived.append(("7-s-on-c", (i, j), sij, c[i], ident, c[i]))
                derived.append(("7-s-on-q", (i, j), sij, q[i], ident, q[i]))
                for k in range(alpha):
                    if k not in (i, j):
                        derived.append(("8-commute-c", (i, j, k), sij, c[k], c[k], sij))
                        derived.append(("8-commute-q", (i, j, k), sij, q[k], q[k], sij))
                derived.append(("9-c-swap", (i, j), c[i], sji, c[j], sij))
                derived.append(("9-q-swap", (i, j), q[i], sji, q[j], sij))

        gpha = s_laws("gpha1-s-id", "gpha2-compose")
        subsets = [(list(J), sum(1 << j for j in J))
                   for r in range(alpha + 1) for J in combinations(range(alpha), r)]
        for J, m in subsets:
            for J2, m2 in subsets:
                gpha.append(("gpha3-c-union", (J, J2), ident, cb[m | m2], cb[m], cb[m2]))
                gpha.append(("gpha3-q-union", (J, J2), ident, qb[m | m2], qb[m], qb[m2]))
            gpha.append(("gpha4-cq", J, cb[m], qb[m], ident, qb[m]))
            gpha.append(("gpha4-qc", J, qb[m], cb[m], ident, cb[m]))
            for sigma in maps:
                for tau in maps:
                    if sigma != tau and all(sigma[t] == tau[t] for t in range(alpha) if t not in J):
                        gpha.append(("gpha5-c", (sigma, tau, J), s[sigma], cb[m], s[tau], cb[m]))
                        gpha.append(("gpha5-q", (sigma, tau, J), s[sigma], qb[m], s[tau], qb[m]))
            for sigma in maps:
                pre = [t for t in range(alpha) if sigma[t] in J]
                if len(set(sigma[t] for t in pre)) == len(pre):
                    p = sum(1 << t for t in pre)
                    gpha.append(("gpha6-c", (sigma, J), cb[m], s[sigma], s[sigma], cb[p]))
                    gpha.append(("gpha6-q", (sigma, J), qb[m], s[sigma], s[sigma], qb[p]))

        return {
            suite: (np.array([i[2:] for i in found]), [i[0] for i in found], [i[1] for i in found])
            for suite, found in (("derived", derived), ("gpha", gpha))
        }


def _tau_name(tau):
    return "s_" + "".join(str(t) for t in tau)


class KripkeSetAlgebra:
    """A built set algebra: the finite algebra plus its Kripke metadata."""

    def __init__(self, algebra, system, G, with_diagonals, positions, masks):
        self.algebra = algebra
        self.system = system
        self.G = G
        self.alpha = system.alpha
        self.with_diagonals = with_diagonals
        self.positions = positions  # tuple of (world, assignment)
        self.masks = masks  # element index -> bitmask over positions

    @cached_property
    def unary(self):
        """The unary maps the suites compose, one row each: the identity,
        s_tau for tau in G, then c_(J) and q_(J) per index subset J by
        bitmask (c_(J) applies c_j in increasing j).  Cached: the algebra
        is not replaced afterwards, detect_fault wraps each in a new instance."""
        ident = np.arange(self.algebra.size, dtype=np.int32)
        rows = [ident, *(self.s(tau) for tau in self.G)]
        for op in (self.c, self.q):
            blocks = [ident]
            for mask in range(1, 1 << self.alpha):
                j = mask.bit_length() - 1
                blocks.append(op(j).take(blocks[mask ^ (1 << j)]))
            rows += blocks
        return np.array(rows)

    @cached_property
    def s_laws(self):
        """Which s-laws, G.identities' first rows, hold: 3-s-id/3-s-compose = gpha1/gpha2."""
        rows = self.G.identities["gpha"][0]
        return _composites_agree(self.unary, rows[: 1 + len(self.G.maps) ** 2])

    def c(self, j):
        return self.algebra.np_table("c_%d" % j)

    def q(self, j):
        return self.algebra.np_table("q_%d" % j)

    def s(self, tau):
        return self.algebra.np_table(_tau_name(tau))

    def d(self, i, j):
        return self.algebra.const("d_%d_%d" % (i, j))

    def decode(self, idx):
        """Element as its family of world functions f_k : V_k -> {0,1}."""
        mask = self.masks[idx]
        fam = {k: {} for k in range(self.system.world_count())}
        for p, (k, v) in enumerate(self.positions):
            fam[k][v] = (mask >> p) & 1
        return fam


def set_algebra(system, G=None, with_diagonals=False, budget=None):
    """Build the set algebra of a Kripke system; see module docstring.

    Raises ClosureError when some V_k is not closed under x o tau for a
    tau in G, and ResourceError over budget.
    """
    budget = budget or budgets.from_env()
    if G is None:
        # SemigroupG checks every composite of two of the alpha^alpha maps
        checks = system.alpha ** (2 * system.alpha)
        if checks > budget.closure:
            raise ResourceError(
                "semigroup T_%d needs %d composite checks, over closure budget %d"
                % (system.alpha, checks, budget.closure)
            )
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

    # substitution closure must hold before anything else (no silent repair)
    for k in range(w):
        vset = set(system.assignments[k])
        for tau in G:
            for v in system.assignments[k]:
                moved = tuple(v[tau[i]] for i in range(system.alpha))
                if moved not in vset:
                    raise ClosureError(k, v, tau)

    # universe: independent per-assignment columns; the chosen world set of
    # a column must be an up-set of that column's world poset
    columns = {}
    for i, (k, v) in enumerate(positions):
        columns.setdefault(v, []).append((k, i))
    col_keys = sorted(columns)
    col_choices = []
    total = 1
    for v in col_keys:
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
    full = (1 << npos) - 1
    # masks as numpy ints of the smallest width holding every position bit
    # (object dtype, i.e. Python ints, beyond 64 positions)
    dtype = np.min_scalar_type(full)
    masks = np.array(sorted(sum(parts) for parts in iproduct(*col_choices)), dtype=dtype)
    n = len(masks)

    # A dense lookup from mask to index (-1 outside the universe) is never
    # larger than one of the n x n tables built below when full < n * n.
    lookup = None
    if full < n * n:
        lookup = np.full(full + 1, -1, dtype=np.int32)
        lookup[masks] = np.arange(n, dtype=np.int32)

    def index(values, out=None):
        """Element indices of result masks, in `out` if given; each must be in the universe."""
        if lookup is not None:
            # every mask is at most full; mode "clip" writes to out unbuffered
            idx = lookup.take(values, out=out, mode="clip")
            if (idx < 0).any():
                raise InternalError("set-algebra operation left the universe")
            return idx
        idx = np.searchsorted(masks, values)
        if not np.array_equal(masks.take(idx, mode="clip"), values):
            raise InternalError("set-algebra operation left the universe")
        if out is None:
            return idx.astype(np.int32)
        out[...] = idx
        return out

    # future masks and quantifier masks per position, each read off the
    # positions whose assignment agrees with its own (off index j for c_j, q_j)
    def groups(key):
        out = {}
        for p, (l, v) in enumerate(positions):
            out.setdefault(key(v), []).append((l, p))
        return out

    same = groups(tuple)
    fut = [sum(1 << p2 for l, p2 in same[v] if system.leq[k][l]) for k, v in positions]
    cyl = [[0] * system.alpha for _ in range(npos)]
    qm = [[0] * system.alpha for _ in range(npos)]
    for j in range(system.alpha):
        agree = groups(lambda v: v[:j] + v[j + 1 :])
        for p, (k, v) in enumerate(positions):
            group = agree[v[:j] + v[j + 1 :]]
            cyl[p][j] = sum(1 << p2 for l, p2 in group if l == k)
            # inf over future worlds and their (larger) V_l
            qm[p][j] = sum(1 << p2 for l, p2 in group if system.leq[k][l])

    # The binary tables, built in blocks of rows of at most _GRID_CHUNK
    # entries, each indexed straight into the stack the algebra takes
    # without a copy.  An imp mask is assembled bit by bit from the highest
    # position down: shift left, then OR in the bit of the next position.
    outside = ~masks
    binary = np.empty((3, n, n), dtype=np.int32)
    step = max(1, _GRID_CHUNK // n)
    for lo in range(0, n, step):
        rows, f = slice(lo, lo + step), masks[lo : lo + step, None]
        index(f | masks, binary[0, rows])
        index(f & masks, binary[1, rows])
        bad = f & outside  # f & ~g
        imp = np.zeros_like(bad)
        for p in reversed(range(npos)):
            imp <<= 1
            imp |= (bad & fut[p]) == 0
        index(imp, binary[2, rows])
    sig = list(CORE_OPS)
    tables = {
        "join": binary[0],
        "meet": binary[1],
        "imp": binary[2],
        "zero": index(0),
        "one": index(full),
    }
    tables["star"] = tables["meet"]
    for j in range(system.alpha):
        c = np.zeros_like(masks)
        q = np.zeros_like(masks)
        for p in reversed(range(npos)):
            c <<= 1
            c |= (masks & cyl[p][j]) != 0
            q <<= 1
            q |= (outside & qm[p][j]) == 0
        sig.append(("c_%d" % j, 1))
        tables["c_%d" % j] = index(c)
        sig.append(("q_%d" % j, 1))
        tables["q_%d" % j] = index(q)
    for tau in G:
        s = np.zeros_like(masks)
        for k, v in reversed(positions):
            moved = tuple(v[tau[i]] for i in range(system.alpha))
            s <<= 1
            s |= (masks >> pidx[(k, moved)]) & 1
        sig.append((_tau_name(tau), 1))
        tables[_tau_name(tau)] = index(s)
    if with_diagonals:
        for i in range(system.alpha):
            for j in range(system.alpha):
                dm = 0
                for p, (k, v) in enumerate(positions):
                    if v[i] == v[j]:
                        dm |= 1 << p
                sig.append(("d_%d_%d" % (i, j), 0))
                tables["d_%d_%d" % (i, j)] = index(dm)
    alg = FiniteAlgebra(
        "kripke(%d worlds, alpha=%d)" % (w, system.alpha),
        n,
        Signature(tuple(sig)),
        tables,
    )
    return KripkeSetAlgebra(alg, system, G, with_diagonals, positions, masks.tolist())


# ---------------------------------------------------------------------------
# dimension sets and neat reducts
# ---------------------------------------------------------------------------


def cylinder_indices(alg):
    return sorted(
        int(n[2:])
        for n in alg.signature.names()
        if n.startswith("c_") and n[2:].isdigit()
    )


def neat_reduct(alg, J):
    """Nr_J: elements with dimension set inside J, ops indexed by J only.

    Returns (reduct, None) or (None, witness) when the candidate set is
    not closed under the J-indexed operations.
    """
    J = frozenset(J)
    outside = ["c_%d" % j for j in cylinder_indices(alg) if j not in J]
    sub = np.flatnonzero(~alg.moved(outside).any(axis=0)).tolist()  # Delta x inside J
    index = np.full(alg.size, -1, dtype=np.int32)
    index[sub] = np.arange(len(sub))
    keep = []
    for name in alg.signature.names():
        if name in ("join", "meet", "star", "imp", "zero", "one"):
            keep.append(name)
        elif name.startswith(("c_", "q_")) and name[2:].isdigit():
            if int(name[2:]) in J:
                keep.append(name)
        elif name.startswith("s_"):
            tau = tuple(int(ch) for ch in name[2:])
            fixes_outside = all(tau[i] == i for i in range(len(tau)) if i not in J)
            maps_into = all(tau[i] in J for i in J if i < len(tau))
            if fixes_outside and maps_into:
                keep.append(name)
        elif name.startswith("d_"):
            i, j = (int(p) for p in name[2:].split("_"))
            if i in J and j in J:
                keep.append(name)
    labels = [alg.label(x) for x in sub]
    reduct, witness = alg.restrict(alg.name + "|Nr_%s" % sorted(J), sub, index, keep, labels)
    if reduct is not None:
        reduct.embedding = tuple(sub)
    return reduct, witness


# ---------------------------------------------------------------------------
# equational verification suites
# ---------------------------------------------------------------------------


def _note(violations, aid, ok, witness=None):
    """Record a failed identity, keeping the first witness per identity."""
    if not ok and all(v[0] != aid for v in violations):
        violations.append((aid, witness))


def _grid_holds(rows, width, holds):
    """holds(r) for consecutive row slices r of a rows x width grid, each
    of at most _GRID_CHUNK entries; stops at the first False."""
    step = max(1, _GRID_CHUNK // max(width, 1))
    return all(holds(slice(lo, lo + step)) for lo in range(0, rows, step))


def _commutes(W, T, U, V, U2, V2):
    """W[T[U[a], V[b]]] == T[U2[a], V2[b]] for all a, b, a None map being
    the identity; T[x[a], y[b]] is gathered as T.take(x, 0).take(y, 1)."""

    def grid(x, y, r):
        rows = T[r] if x is None else T.take(x[r], 0)
        return rows if y is None else rows.take(y, 1)

    return _grid_holds(
        len(U2), len(V2), lambda r: np.array_equal(W.take(grid(U, V, r)), grid(U2, V2, r))
    )


def _composites_agree(stack, rows):
    """Per row (u, v, w, x): stack[u][stack[v]] == stack[w][stack[x]],
    _GRID_CHUNK entries at a time."""
    n = stack.shape[1]
    flat = stack.ravel()
    step = max(1, _GRID_CHUNK // n)
    out = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), step):
        u, v, w, x = rows[lo : lo + step].T
        lhs = flat.take(stack.take(v, 0) + n * u[:, None])
        rhs = flat.take(stack.take(x, 0) + n * w[:, None])
        np.all(lhs == rhs, axis=1, out=out[lo : lo + step])
    return out


def _note_composites(note, ksa, suite):
    """Note the failed composite identities of a suite in its loop order."""
    rows, aids, witnesses = ksa.G.identities[suite]
    laws = ksa.s_laws
    ok = np.concatenate([laws, _composites_agree(ksa.unary, rows[len(laws) :])])
    for k in np.flatnonzero(~ok):
        note(aids[k], False, deepcopy(witnesses[k]))


def verify_derived_identities(ksa):
    """The nine derived-identity groups for cylindrifiers, co-quantifiers
    and substitutions; exhaustively instantiated over the finite index set.

    Groups 3-9 are identities between composites of unary maps, evaluated
    as one batch; the failures are noted in the loop order of the
    instances, so each witness is the first failing instance.

    When every s-law holds, 2-endo-join/meet/imp are checked on
    G.generators only: then s_id is the identity and s_(sigma o tau) =
    s_sigma s_tau as tables, every other map of G is a composite of
    generators, and a composite of endomorphisms is an endomorphism.  If
    an s-law or a generator fails, every map is checked, so the
    violations and their witnesses are those of the loop over G."""
    alg = ksa.algebra
    ar = np.arange(alg.size)
    violations = []
    note = partial(_note, violations)
    for i in range(ksa.alpha):
        C = ksa.c(i)
        note("1-increasing[%d]" % i, alg.order[ar, C].all(), i)
        note("1-idempotent[%d]" % i, np.array_equal(C.take(C), C), i)
        note("1-additive[%d]" % i, _commutes(C, alg.np_table("join"), None, None, C, C), i)
        note("q-decreasing[%d]" % i, alg.order[ksa.q(i), ar].all(), i)
        for j in range(ksa.alpha):
            Cj = ksa.c(j)
            note("1-commute[%d,%d]" % (i, j), np.array_equal(C.take(Cj), Cj.take(C)), (i, j))
    binary = [alg.np_table(name) for name in ("join", "meet", "imp")]
    substitutions = list(zip(ksa.G, ksa.unary[1:]))

    def endo(S):
        return (_commutes(S, T, None, None, S, S) for T in binary)

    gens = set(ksa.G.generators)
    shortcut = ksa.s_laws.all() and all(
        all(endo(S)) for tau, S in substitutions if tau in gens
    )
    for tau, S in substitutions:
        if not shortcut:
            for name, ok in zip(("join", "meet", "imp"), endo(S)):
                note("2-endo-%s[%s]" % (name, tau), ok, tau)
        note("2-endo-zero[%s]" % (tau,), S[alg.zero] == alg.zero, tau)
    _note_composites(note, ksa, "derived")
    return AxiomReport("kripke-derived", not violations, violations)


def verify_gpha_axioms(ksa):
    """GPHA axioms (1)-(6) over all finite J, J' and all sigma, tau in G;
    with diagonals also the three GPHAE identities.

    The q-form of axiom (3) is checked as q_(JuJ') = q_(J) q_(J'),
    the q-analogue of the c-clause (composition of the co-quantifiers).
    Axioms (1) and (2) share one evaluation with the derived identities
    3-s-id and 3-s-compose.  Axioms (3)-(6) are evaluated as one batch of
    identities between composites of unary maps; the failures are noted
    in the loop order of the instances (J, then J', sigma, tau), so each
    axiom's witness is its first failing instance in that order."""
    alg = ksa.algebra
    alpha = ksa.alpha
    violations = []
    note = partial(_note, violations)
    _note_composites(note, ksa, "gpha")
    if ksa.with_diagonals:
        D = [[ksa.d(k, l) for l in range(alpha)] for k in range(alpha)]
        for k in range(alpha):
            note("gphae1-dkk", D[k][k] == alg.one, k)
            for l in range(alpha):
                for tau, S in zip(ksa.G, ksa.unary[1:]):
                    note("gphae2-s-d", S[D[k][l]] == D[tau[k]][tau[l]], (tau, k, l))
                Skl = ksa.s(replacement(alpha, k, l))
                note("gphae3-d-leq-s", alg.order[alg.np_table("meet")[:, D[k][l]], Skl].all(), (k, l))
    return AxiomReport("gpha", not violations, violations)


def verify_heyting_quantifiers(ksa, j):
    """The six existential axioms for c_j and four universal ones for q_j,
    violations in that order and without witnesses.

    In exists3-exists5 a variable that occurs only under c_j ranges over
    the image R of c_j: both sides depend on such a b only through c_j(b),
    so the check is exact and shrinks from n^2 to n|R| or |R|^2 pairs."""
    alg = ksa.algebra
    n = alg.size
    ar = np.arange(n)
    J, M, I = (alg.np_table(name) for name in ("join", "meet", "imp"))
    C, Q = ksa.c(j), ksa.q(j)
    in_image = np.zeros(n, dtype=bool)
    in_image[C] = True
    R = np.flatnonzero(in_image)
    violations = []
    note = partial(_note, violations)

    def forall3(r):
        lhs = Q.take(I[r])
        rhs = I.take(Q[r], 0).take(Q, 1)
        return alg.order.take(lhs * n + rhs).all()

    note("exists1-zero", int(C[alg.zero]) == alg.zero)
    note("exists2-increasing", alg.order[ar, C].all())
    note("exists3-meet", _commutes(C, M, None, R, C, R))
    note("exists4-imp", _commutes(C, I, R, R, R, R))
    note("exists5-join", _commutes(C, J, R, R, R, R))
    note("exists6-idempotent", np.array_equal(C.take(C), C))
    note("forall1-one", int(Q[alg.one]) == alg.one)
    note("forall2-decreasing", alg.order[Q, ar].all())
    note("forall3-imp", _grid_holds(n, n, forall3))
    note("forall4-idempotent", np.array_equal(Q.take(Q), Q))
    return AxiomReport("heyting-quantifiers", not violations, violations)


def verify_diagonal_equivalence_shadow(ksa):
    """Element-level inequality behind the d-induced equivalence:
    d_kl ^ d_lu <= d_ku, plus reflexivity and symmetry of the diagonals."""
    if not ksa.with_diagonals:
        raise SignatureError("diagonals absent")
    alg = ksa.algebra
    alpha = ksa.alpha
    for k in range(alpha):
        if ksa.d(k, k) != alg.one:
            return False, ("refl", k)
        for l in range(alpha):
            if ksa.d(k, l) != ksa.d(l, k):
                return False, ("sym", (k, l))
            for u in range(alpha):
                if not alg.leq(alg.meet(ksa.d(k, l), ksa.d(l, u)), ksa.d(k, u)):
                    return False, ("trans", (k, l, u))
    return True, None


def verify_kripke(ksa):
    """Run the suites lazily, in order: derived identities, GPHA axioms, the
    quantifier axioms for each j, then the diagonals when present.  Yields
    (suite, passed, detail) per suite: suite is ("derived",), ("gpha",),
    ("quantifiers", j) or ("diagonals",); detail is the report's violations,
    or the diagonal witness."""
    report = verify_derived_identities(ksa)
    yield ("derived",), report.passed, report.violations
    report = verify_gpha_axioms(ksa)
    yield ("gpha",), report.passed, report.violations
    for j in range(ksa.alpha):
        report = verify_heyting_quantifiers(ksa, j)
        yield ("quantifiers", j), report.passed, report.violations
    if ksa.with_diagonals:
        yield ("diagonals",), *verify_diagonal_equivalence_shadow(ksa)


# ---------------------------------------------------------------------------
# seeded random systems
# ---------------------------------------------------------------------------


def _preorder_closure(w, edges):
    leq = [[i == j for j in range(w)] for i in range(w)]
    for i, j in edges:
        leq[i][j] = True
    for m in range(w):
        for i in range(w):
            for j in range(w):
                if leq[i][m] and leq[m][j]:
                    leq[i][j] = True
    return leq


def random_kripke(seed, max_worlds=3, max_base=3, max_alpha=3, budget=None):
    """Deterministic random system within the build budgets.

    Assignment sets are the full function spaces X_k^alpha: at finite
    alpha the weak-space relativization degenerates to the full space,
    and genuinely relativized assignment lists falsify cylindrifier
    commutativity, so the random corpus sticks to the
    default.  Draws are retried (seed-deterministically) until the
    assignment and universe budgets admit explicit tables; falls back to
    the trivial system when the bounds are hopeless.
    """
    budget = budget or budgets.from_env()
    rng = random.Random(seed)
    for _attempt in range(200):
        w = rng.randint(1, max_worlds)
        alpha = rng.randint(1, max_alpha)
        edges = [
            (i, j)
            for i in range(w)
            for j in range(w)
            if i != j and rng.random() < 0.4
        ]
        leq = _preorder_closure(w, edges)
        sizes = [rng.randint(1, max_base) for _ in range(w)]
        for k in range(w):
            for l in range(w):
                if leq[k][l]:
                    sizes[l] = max(sizes[l], sizes[k])
        base = {k: tuple(range(sizes[k])) for k in range(w)}
        try:
            sysm = KripkeSystem(w, leq, base, None, alpha)
        except InvalidSpecError:
            continue
        if sysm.total_assignments() > budget.kripke_assignments:
            continue
        try:
            ksa = set_algebra(sysm, with_diagonals=True, budget=budget)
        except (ResourceError, ClosureError):
            continue
        return sysm, ksa
    sysm = KripkeSystem(1, [[True]], {0: (0,)}, None, 1)
    return sysm, set_algebra(sysm, with_diagonals=True, budget=budget)


def mutate_table(alg, opname, position, new_value):
    """Copy of the algebra with one table entry replaced (fault injection)."""
    tables = {name: alg.np_table(name) for name in alg.signature.names()}
    tables[opname] = tables[opname].copy()
    tables[opname][position] = new_value
    return FiniteAlgebra(alg.name + "#fault", alg.size, alg.signature, tables, labels=alg.labels)


def detect_fault(ksa, faulted_algebra):
    """True when some verification suite rejects the corrupted algebra:
    the Heyting axioms, read up to their first failure, then the Kripke
    suites, up to the first that fails."""
    if next(_axiom_failures(faulted_algebra, "heyting"), None) is not None:
        return True
    wrapped = KripkeSetAlgebra(
        faulted_algebra, ksa.system, ksa.G, ksa.with_diagonals, ksa.positions, ksa.masks
    )
    return not all(passed for _, passed, _ in verify_kripke(wrapped))
