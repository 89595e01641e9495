"""Free algebras over finitely generated varieties, by the product-of-
valuations construction: Fr_n(K) is realized concretely as the subalgebra
of prod_{A in K} A^(A^n) generated by the n projection tuples."""

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from . import budgets
from .algebra import (
    FiniteAlgebra,
    complement,
    homomorphisms,
    is_homomorphism,
    iso_check,
    product,
    subalgebra_generate,
)
from .errors import (
    InvalidSpecError,
    NotComplementedError,
    PreconditionError,
    ResourceError,
)


@dataclass(frozen=True)
class VarietySpec:
    """Finite algebras generating the variety V(Fin(K)); shared signature."""

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InvalidSpecError("variety needs at least one generating algebra")
        sig = self.generators[0].signature
        for g in self.generators[1:]:
            if g.signature.ops != sig.ops:
                raise InvalidSpecError("variety generators must share a signature")

    @property
    def signature(self):
        return self.generators[0].signature


class FreeAlgebra:
    """A concretely constructed free algebra plus its construction record."""

    def __init__(self, algebra, generators, coords, variety, vectors):
        self.algebra = algebra
        self.generators = tuple(generators)  # element indices of the free gens
        self.coords = tuple(coords)  # (generator-algebra index, valuation tuple)
        self.variety = variety
        self.vectors = vectors  # int32 (size, len(coords)): row i is element i

    @property
    def size(self):
        return self.algebra.size

    def report(self):
        return {
            "format": "reslat/1",
            "size": self.algebra.size,
            "free_generators": list(self.generators),
            "atom_count": len(atoms(self.algebra)),
            "coordinates": [
                {"algebra": ai, "valuation": list(v)} for ai, v in self.coords
            ],
            "universal_property": universal_property_holds(self),
        }


def _row_keys(rows):
    """One void scalar per row; big-endian, so byte order is the
    lexicographic order of the (non-negative) rows."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _key_rows(keys):
    return keys.view(">i4").reshape(len(keys), -1).astype(np.int32)


def free_algebra(variety, n, coords=None, budget=None):
    """Birkhoff construction: close the projection tuples under the ops.

    `coords` lists the (generator-algebra index, valuation) pairs; the
    default is every valuation, in lexicographic order.  The closure runs
    vectorized per coordinate; elements end up in canonical (lexicographic
    tuple) order, and `vectors` keeps the element tuples.
    """
    if n < 1:
        raise InvalidSpecError("need at least one generator")
    budget = budget or budgets.from_env()
    if coords is None:
        coords = [
            (ai, v)
            for ai, g in enumerate(variety.generators)
            for v in iproduct(range(g.size), repeat=n)
        ]
    if len(coords) > budget.closure:
        raise ResourceError(
            "coordinate count %d over closure budget %d" % (len(coords), budget.closure)
        )
    gens_of = [variety.generators[ai] for ai, _ in coords]
    sig = variety.signature
    C = len(coords)
    ctabs = {
        opname: [gens_of[c].np_table(opname) for c in range(C)]
        for opname, ar in sig.ops
        if ar > 0
    }

    # result blocks are big-endian int32, ready to be keyed without a copy
    def apply_unary(opname, block):
        out = np.empty(block.shape, dtype=">i4")
        ts = ctabs[opname]
        for c in range(C):
            out[:, c] = ts[c][block[:, c]]
        return out

    def apply_binary(opname, left, right):
        m1, m2 = len(left), len(right)
        if m1 * m2 > budget.closure:
            raise ResourceError(
                "free-algebra closure block of %d candidates over closure budget %d"
                % (m1 * m2, budget.closure)
            )
        out = np.empty((m1 * m2, C), dtype=">i4")
        ts = ctabs[opname]
        for c in range(C):
            out[:, c] = ts[c][left[:, c][:, None], right[:, c][None, :]].reshape(-1)
        return out

    def block_keys(frontier, E):
        """Sorted keys of each op's result block; one block is alive at a time."""
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
    for i in reversed(range(n)):  # the first generator names a shared element
        labels[generators[i]] = "g%d" % i
    alg = FiniteAlgebra(
        "Fr_%d(%s)" % (n, "+".join(g.name for g in variety.generators)),
        size,
        sig,
        tables,
        labels=labels,
    )
    return FreeAlgebra(alg, generators, coords, variety, E)


def universal_property_holds(free):
    """Every valuation of the free generators into every variety generator
    extends to a homomorphism (namely the coordinate projection, read off
    the stored element vectors), and the extension is unique because the
    generators generate."""
    alg = free.algebra
    if len(subalgebra_generate(alg, free.generators)) != alg.size:
        return False
    coord_index = {c: i for i, c in enumerate(free.coords)}
    for ai, g in enumerate(free.variety.generators):
        for v in iproduct(range(g.size), repeat=len(free.generators)):
            if (ai, v) not in coord_index:  # no stored projection: search for one
                seed = dict(zip(free.generators, v))
                if len(seed) < len(set(zip(free.generators, v))):
                    return False  # equal generators sent to different values
                if not homomorphisms(alg, g, seed=seed, limit=1):
                    return False
                continue
            mapping = free.vectors[:, coord_index[(ai, v)]]
            if mapping[list(free.generators)].tolist() != list(v):
                return False
            if not is_homomorphism(alg, g, mapping):
                return False
    return True


# ---------------------------------------------------------------------------
# atoms and atomicity
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# relativization and decomposition
# ---------------------------------------------------------------------------


def relativize(alg, b):
    """Rl_b: universe {x : x <= b}, every op relativized by meeting with b."""
    meet_b = alg.np_table("meet")[:, b]
    sub = np.flatnonzero(meet_b == np.arange(alg.size))
    position = np.zeros(alg.size, dtype=np.int32)
    position[sub] = np.arange(len(sub))
    name = "Rl_%s(%s)" % (alg.label(b), alg.name)
    out, _ = alg.restrict(name, sub, position[meet_b], labels=[alg.label(x) for x in sub.tolist()])
    out.embedding = tuple(sub.tolist())  # position i holds original element sub[i]
    return out


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


def decompose(alg, b):
    """A ~ Rl_b x Rl_-b through x |-> (x ^ b, x ^ -b); verified exactly."""
    c = complement(alg, b)
    if c is None:
        raise NotComplementedError("element %s has no complement" % alg.label(b))
    rb = relativize(alg, b)
    rc = relativize(alg, c)
    prod = product([rb, rc])
    rb_idx = {e: i for i, e in enumerate(rb.embedding)}
    rc_idx = {e: i for i, e in enumerate(rc.embedding)}
    mapping = [  # `product` lists the pairs lexicographically
        rb_idx[alg.meet(x, b)] * rc.size + rc_idx[alg.meet(x, c)]
        for x in range(alg.size)
    ]
    if len(set(mapping)) != alg.size or alg.size != prod.size:
        return None, (rb, rc, mapping)
    if not is_homomorphism(alg, prod, mapping):
        bad = _first_hom_failure(alg, prod, mapping)
        return None, (rb, rc, bad)
    return (rb, rc, mapping), None


def _first_hom_failure(a, b, mapping):
    for opname, ar in a.signature.ops:
        if ar == 0:
            if mapping[a.const(opname)] != b.const(opname):
                return (opname, ())
        elif ar == 1:
            for x in range(a.size):
                if mapping[a.apply(opname, x)] != b.apply(opname, mapping[x]):
                    return (opname, (x,))
        else:
            for x in range(a.size):
                for y in range(a.size):
                    if mapping[a.apply(opname, x, y)] != b.apply(
                        opname, mapping[x], mapping[y]
                    ):
                        return (opname, (x, y))
    return None


# ---------------------------------------------------------------------------
# free generation and the product decomposition
# ---------------------------------------------------------------------------


def is_freely_generated_by(free, ys, variety=None):
    """Y freely generates iff Y generates and every valuation of Y into a
    variety generator extends to a homomorphism (uniqueness is automatic
    once Y generates)."""
    variety = variety or free.variety
    alg = free.algebra
    ys = list(ys)
    if len(ys) != len(free.generators):
        raise PreconditionError("|Y| must match the free generator count")
    if len(subalgebra_generate(alg, ys)) != alg.size:
        return False
    for g in variety.generators:
        for v in iproduct(range(g.size), repeat=len(ys)):
            seed = dict(zip(ys, v))
            found = homomorphisms(alg, g, seed=seed, limit=1)
            if not found:
                return False
    return True


def free_product_decomposition_check(variety, n, budget=None):
    """Build Fr_n x Fr_n and Fr_{n+1}; search for an isomorphism.

    The canonical candidate g_i |-> (g_i, g_i), g_n |-> (1, 0) is tried
    first (it mirrors the relativization proof); a generic generator-image
    search is the fallback.  Returns (bool, mapping or None).
    """
    budget = budget or budgets.from_env()
    fr_n = free_algebra(variety, n, budget=budget)
    fr_n1 = free_algebra(variety, n + 1, budget=budget)
    prod = product([fr_n.algebra, fr_n.algebra])
    if prod.size != fr_n1.size:
        return False, None
    size = fr_n.size  # `product` lists the pairs lexicographically: (x, y) is x * size + y
    canonical = {g: gi * size + gi for g, gi in zip(fr_n1.generators[:-1], fr_n.generators)}
    canonical[fr_n1.generators[-1]] = fr_n.algebra.one * size + fr_n.algebra.zero
    maps = homomorphisms(
        fr_n1.algebra, prod, injective=True, gens=list(fr_n1.generators),
        seed=canonical, limit=1,
    )
    if maps and len(set(maps[0])) == prod.size:
        return True, maps[0]
    m = iso_check(fr_n1.algebra, prod, gens=list(fr_n1.generators))
    return (m is not None), m


def atomless_shadow_check(variety, n, budget=None):
    """Finite shadow of the atomless theorem: inside Fr_n, every nonzero a
    of the subalgebra on the first n-1 generators splits over the last
    generator (a ^ g != 0 and a ^ -g != 0)."""
    if n < 2:
        raise PreconditionError("need n >= 2")
    free = free_algebra(variety, n, budget=budget)
    alg = free.algebra
    g_last = free.generators[-1]
    neg_g = complement(alg, g_last)
    if neg_g is None:
        raise NotComplementedError("last generator has no complement")
    sub = subalgebra_generate(alg, free.generators[:-1])
    for a in sorted(sub):
        if a == alg.zero:
            continue
        if alg.meet(a, g_last) == alg.zero or alg.meet(a, neg_g) == alg.zero:
            return False, a
    return True, None


# builtin variety generators ------------------------------------------------


def boolean_variety():
    from .algebra import ChainSpec, make_chain

    return VarietySpec((make_chain(ChainSpec("lukasiewicz", 2)),))


def distributive_lattice_variety():
    from .algebra import Signature

    sig = Signature((("join", 2), ("meet", 2), ("zero", 0), ("one", 0)))
    alg = FiniteAlgebra(
        "dl2",
        2,
        sig,
        {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]], "zero": 0, "one": 1},
        labels=["0", "1"],
    )
    return VarietySpec((alg,))
