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
    first_hom_failure,
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


class _RowKeys:
    """Rows of element indices packed into integer keys whose order is
    the lexicographic order of the rows.

    Coordinate c takes a fixed width of max(1, ceil(log2 sizes[c])) bits.
    The coordinates follow each other from the most significant bit of
    the first uint64 word down, coordinate 0 first, over
    ceil(sum of widths / 64) words, so a coordinate may span two words.
    Key arrays are word-major, (words, keys); decoded rows are
    coordinate-major, (coordinates, rows).  This class is the only code
    that knows the encoding."""

    def __init__(self, sizes):
        self.sizes = sizes
        widths = [max(1, (s - 1).bit_length()) for s in sizes]
        self.words = max(1, -(-sum(widths) // 64))
        # per coordinate, its pieces: (word, right shift of the value, mask, left shift into the word)
        self.pieces = []
        top = 0  # bits before the coordinate, from the top of word 0
        for w in widths:
            end, pieces = top + w, []
            while top < end:
                word = top // 64
                stop = min(end, 64 * word + 64)
                pieces.append((word, end - stop, (1 << (stop - top)) - 1, 64 * word + 64 - stop))
                top = stop
            self.pieces.append(pieces)

    def encode(self, rows):
        """The keys of `rows`, a list of rows or one row."""
        rows = np.array(rows, dtype=np.uint64, ndmin=2)
        keys = np.zeros((self.words, len(rows)), dtype=np.uint64)
        for c, pieces in enumerate(self.pieces):
            for word, right, mask, left in pieces:
                keys[word] |= (rows[:, c] >> right & mask) << left
        return keys

    def decode(self, keys):
        rows = np.zeros((len(self.sizes), keys.shape[1]), dtype=np.intp)
        for c, pieces in enumerate(self.pieces):
            for word, right, mask, left in pieces:
                rows[c] |= (keys[word] >> left & mask).astype(np.intp) << right
        return rows

    def shifted(self, tables):
        """Per coordinate, per piece: the coordinate's table, flattened, with
        each entry cut to the piece's bits and moved to their place."""
        return [
            [(t.ravel().astype(np.uint64) >> right & mask) << left for _, right, mask, left in pieces]
            for t, pieces in zip(tables, self.pieces)
        ]

    def apply(self, tables, left, right=None):
        """The keys of each op's results, for ops given by their `shifted`
        tables: unary ones at the decoded rows `left`, binary ones at each
        pair of a row of `left` and a row of `right`, left-major."""
        count = left.shape[1] * (1 if right is None else right.shape[1])
        keys = [np.zeros((self.words, count), dtype=np.uint64) for _ in tables]
        for c, (size, pieces) in enumerate(zip(self.sizes, self.pieces)):
            at = left[c] if right is None else (left[c][:, None] * size + right[c]).ravel()
            for out, shifted in zip(keys, tables):
                for (word, *_), t in zip(pieces, shifted[c]):
                    out[word] |= t.take(at)
        return keys


def _distinct(keys):
    """The distinct keys of a key array, in key order."""
    keys = np.sort(keys, axis=1) if len(keys) == 1 else keys[:, np.lexsort(keys[::-1])]
    keep = np.ones(keys.shape[1], dtype=bool)
    keep[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return keys[:, keep]


def _search(known, keys):
    """For each key, the number of keys of the sorted distinct `known` below it."""
    if len(known) == 1:
        return np.searchsorted(known[0], keys[0])
    both = np.concatenate([known, keys], axis=1)
    is_known = np.arange(both.shape[1]) < known.shape[1]
    order = np.lexsort((is_known, *both[::-1]))  # a key before the known keys equal to it
    below = np.empty(len(order), dtype=np.intp)
    below[order] = np.cumsum(is_known[order]) - is_known[order]
    return below[known.shape[1] :]


def free_algebra(variety, n, coords=None, budget=None):
    """Birkhoff construction: close the projection tuples under the ops.

    `coords` lists the (generator-algebra index, valuation) pairs; the
    default is every valuation, in lexicographic order.  An element is a
    row of values, one per coordinate, held as a packed integer key
    (`_RowKeys`) whose order is the lexicographic row order.  Each round
    applies every op to the new rows against all known ones, gathering
    each coordinate's shifted table at once for all rows, and keeps the
    keys not yet known.  Elements end up in canonical (lexicographic
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
    packing = _RowKeys([g.size for g in gens_of])
    # an op whose arity and tables, in every variety generator, equal an
    # earlier op's (oplus and join, odot, star and meet on luk:2) shares
    # its keys and its result table; the arity keeps a unary table apart
    # from a binary one with the same entries on a one-element generator
    first = {}
    alias = {
        op: first.setdefault((ar, *(g.np_table(op).tobytes() for g in variety.generators)), op)
        for op, ar in sig.ops
        if ar > 0
    }
    shifted = {op: packing.shifted([g.np_table(op) for g in gens_of]) for op in first.values()}
    unary = [op for op, ar in sig.ops if ar == 1 and alias[op] == op]
    binary = [op for op, ar in sig.ops if ar == 2 and alias[op] == op]

    def apply(ops, left, right=None):
        if right is not None and left.shape[1] * right.shape[1] > budget.closure:
            raise ResourceError(
                "free-algebra closure block of %d candidates over closure budget %d"
                % (left.shape[1] * right.shape[1], budget.closure)
            )
        return packing.apply([shifted[op] for op in ops], left, right)

    projections = packing.encode([[v[i] for _, v in coords] for i in range(n)])
    constants = {
        op: packing.encode([g.const(op) for g in gens_of]) for op, ar in sig.ops if ar == 0
    }
    known = _distinct(np.concatenate([projections, *constants.values()], axis=1))
    frontier = E = packing.decode(known)
    while True:
        fresh = [known[:, :0]]
        for ops, left, right in ((unary, frontier, None), (binary, frontier, E), (binary, E, frontier)):
            for keys in apply(ops, left, right):  # the blocks of one direction at a time
                keys = _distinct(keys)
                at = _search(known, keys).clip(max=known.shape[1] - 1)
                fresh.append(keys[:, (known[:, at] != keys).any(axis=0)])
        fresh = _distinct(np.concatenate(fresh, axis=1))
        if not fresh.shape[1]:
            break
        known = np.insert(known, _search(known, fresh), fresh, axis=1)
        if known.shape[1] > budget.closure:
            raise ResourceError(
                "free-algebra closure of %d elements over closure budget %d"
                % (known.shape[1], budget.closure)
            )
        frontier, E = packing.decode(fresh), packing.decode(known)
    size = known.shape[1]
    tables = {op: int(_search(known, keys)[0]) for op, keys in constants.items()}
    for op, keys in zip(unary, apply(unary, E)):
        tables[op] = _search(known, keys)
    for op, keys in zip(binary, apply(binary, E, E)):
        tables[op] = _search(known, keys).reshape(size, size)
    tables.update((op, tables[alias[op]]) for op in alias)
    generators = _search(known, projections).tolist()
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
    return FreeAlgebra(alg, generators, coords, variety, np.ascontiguousarray(E.T, dtype=np.int32))


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
    below = alg.order & ~np.eye(alg.size, dtype=bool)  # [b, a]: b <= a, b != a
    below[alg.zero] = False
    minimal = ~below.any(axis=0)
    minimal[alg.zero] = False
    return np.flatnonzero(minimal).tolist()


def is_atomic(alg):
    """(True, None) or (False, witness): the first nonzero element with no atom below."""
    covered = alg.order[atoms(alg)].any(axis=0)
    covered[alg.zero] = True
    bare = np.flatnonzero(~covered)
    return (False, int(bare[0])) if len(bare) else (True, None)


# ---------------------------------------------------------------------------
# relativization and decomposition
# ---------------------------------------------------------------------------


def relativize(alg, b):
    """Rl_b: universe {x : x <= b}, every op relativized by meeting with b."""
    meet_b = alg.np_table("meet")[:, b]
    sub = np.flatnonzero(alg.order[:, b])
    position = np.zeros(alg.size, dtype=np.int32)
    position[sub] = np.arange(len(sub))
    name = "Rl_%s(%s)" % (alg.label(b), alg.name)
    out, _ = alg.restrict(name, sub, position.take(meet_b), labels=[alg.label(x) for x in sub.tolist()])
    out.embedding = tuple(sub.tolist())  # position i holds original element sub[i]
    return out


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
    bad = first_hom_failure(alg, prod, mapping)
    if bad is not None:
        return None, (rb, rc, bad)
    return (rb, rc, mapping), None


# ---------------------------------------------------------------------------
# free generation and the product decomposition
# ---------------------------------------------------------------------------


def is_freely_generated_by(free, ys):
    """Y freely generates Fr_n iff |Y| = n, Y generates, and the free
    generators have the universal property: the map g_i |-> y_i then
    extends to an endomorphism, onto because Y generates, so bijective on
    a finite algebra, an automorphism that carries the universal property
    of the g_i over to the y_i.  A list of the wrong length is refused."""
    ys = list(ys)
    if len(ys) != len(free.generators):
        raise PreconditionError("|Y| must match the free generator count")
    alg = free.algebra
    return len(subalgebra_generate(alg, ys)) == alg.size and universal_property_holds(free)


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
