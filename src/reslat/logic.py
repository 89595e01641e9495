"""Formula frontend: parsing, evaluation over finite chains, semantic
consequence, Lindenbaum algebras, type spaces and the generic-filter
engine behind the finite omitting-types machinery.

Formulas run on the term evaluator of `check_class_axioms`, over whole
valuation grids at once, each compiled once so that every distinct
subformula is evaluated once.

Consequence here is semantic over a declared finite chain family.  For a
BL-sound calculus, provability implies validity on these chains; the
converse is not claimed.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import count
import numpy

from . import budgets
from .algebra import _evaluate, _grid_chunks, core_reduct, make_chain, parse_chain_name
from .errors import (
    DomainError,
    InvalidSpecError,
    NoGenericPointError,
)
from .free import VarietySpec, atoms, free_algebra, is_atomic
from .spectra import enumerate_filters, upset, zariski_sets

# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Konst:
    value: int  # 0 or 1

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Neg:
    sub: object

    def __str__(self):
        return "~%s" % _wrap(self.sub)


@dataclass(frozen=True)
class Bin:
    op: str  # one of & -> /\ \/ <->
    left: object
    right: object

    def __str__(self):
        return "%s %s %s" % (_wrap(self.left), self.op, _wrap(self.right))


def _wrap(f):
    if isinstance(f, (Var, Konst, Neg)):
        return str(f)
    return "(%s)" % f


class ParseError(InvalidSpecError):
    def __init__(self, message, position):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


_TOKENS = ("->", "<->", "&", "/\\", "\\/", "~", "(", ")")


def tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        matched = False
        for t in ("<->", "->", "/\\", "\\/", "&", "~", "(", ")"):
            if text.startswith(t, i):
                out.append((t, i))
                i += len(t)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            word = text[i:j]
            if word not in ("0", "1"):
                raise ParseError("bad numeral %r" % word, i)
            out.append((word, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append((text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    out.append((None, len(text)))
    return out


def parse(text):
    """Grammar: imp := or (('->'|'<->') imp)?; or := and ('\\/' and)*;
    and := strong ('/\\' strong)*; strong := unary ('&' unary)*;
    unary := '~' unary | atom.  Implication is right associative."""
    tokens = tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0]

    def where():
        return tokens[pos[0]][1]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok[0]

    def parse_imp():
        left = parse_or()
        if peek() in ("->", "<->"):
            op = advance()
            right = parse_imp()
            return Bin(op, left, right)
        return left

    def parse_or():
        node = parse_and()
        while peek() == "\\/":
            advance()
            node = Bin("\\/", node, parse_and())
        return node

    def parse_and():
        node = parse_strong()
        while peek() == "/\\":
            advance()
            node = Bin("/\\", node, parse_strong())
        return node

    def parse_strong():
        node = parse_unary()
        while peek() == "&":
            advance()
            node = Bin("&", node, parse_unary())
        return node

    def parse_unary():
        if peek() == "~":
            advance()
            return Neg(parse_unary())
        return parse_atom()

    def parse_atom():
        tok = peek()
        if tok == "(":
            advance()
            node = parse_imp()
            if peek() != ")":
                raise ParseError("expected ')'", where())
            advance()
            return node
        if tok in ("0", "1"):
            advance()
            return Konst(int(tok))
        if tok is None or tok in _TOKENS:
            raise ParseError("expected a formula", where())
        advance()
        return Var(tok)

    node = parse_imp()
    if peek() is not None:
        raise ParseError("trailing input", where())
    return node


def expand(f):
    """Rewrite derived connectives into & and -> (idempotent, syntactic)."""
    if isinstance(f, (Var, Konst)):
        return f
    if isinstance(f, Neg):
        return Bin("->", expand(f.sub), Konst(0))
    left, right = expand(f.left), expand(f.right)
    if f.op == "&" or f.op == "->":
        return Bin(f.op, left, right)
    if f.op == "/\\":
        return Bin("&", left, Bin("->", left, right))
    if f.op == "\\/":
        a = Bin("->", Bin("->", left, right), right)
        b = Bin("->", Bin("->", right, left), left)
        return Bin("&", a, Bin("->", a, b))
    if f.op == "<->":
        return Bin("&", Bin("->", left, right), Bin("->", right, left))
    raise DomainError("unknown connective %r" % f.op)


def variables(f):
    return {name for name, _ in _compile(f)[2]}


# connective -> table, in the order `_representatives` tries candidates
_TABLES = {"&": "star", "->": "imp", "/\\": "meet", "\\/": "join"}


def _term(f, leaves, memo, nodes):
    """The formula as a term of `algebra._evaluate` over an algebra's
    `tables` or `cells`: a constant is the leaf "zero" or "one", and a
    variable the str leaf "$name" (a Var key hashes in Python, five times
    slower): no identifier starts with "$", so none collides with an op.

    The term is a DAG: `memo` translates each formula object once, by id,
    as `expand` shares them, and `nodes` interns each op node by its op and
    the ids of its arguments, so equal subformulas built apart are one node
    too.  `nodes` lists every op node after the nodes it reads."""
    hit = memo.get(id(f))
    if hit is not None:
        return hit
    if isinstance(f, Bin):
        a, b = _term(f.left, leaves, memo, nodes), _term(f.right, leaves, memo, nodes)
        if f.op == "<->":
            term = _node(nodes, "star", _node(nodes, "imp", a, b), _node(nodes, "imp", b, a))
        elif f.op in _TABLES:
            term = _node(nodes, _TABLES[f.op], a, b)
        else:
            raise DomainError("unknown connective %r" % f.op)
    elif isinstance(f, Var):
        term = leaves.setdefault(f.name, "$" + f.name)
    elif isinstance(f, Neg):
        term = _node(nodes, "imp", _term(f.sub, leaves, memo, nodes), "zero")
    else:
        term = "zero" if f.value == 0 else "one"
    memo[id(f)] = term
    return term


def _node(nodes, op, a, b):
    return nodes.setdefault((op, id(a), id(b)), (op, a, b))


_COMPILED = {}  # id -> (formula, bindings, root, leaves); holding the formula keeps its id unique
_KEYS = count()  # binding keys, never reused, so formulas sharing an env never share one


def _compile(f, bound=None):
    """(bindings, root, leaves) of a formula, cached by object: hashing a
    frozen formula walks the whole tree, as translating it does.

    Each op node of the term DAG read twice or more is a binding
    (key, term), listed after the bindings its term reads; later bindings
    and the root read it as the leaf key "#k", and no op name or "$name"
    leaf starts with "#".
    Evaluating the bindings into the env in order, then the root, reads
    each distinct subterm once.  `leaves` are the (name, leaf) pairs.
    A variable outside `bound`, when given, is a DomainError."""
    hit = _COMPILED.get(id(f))
    if hit is None:
        if len(_COMPILED) >= 64:
            _COMPILED.clear()
        leaves, nodes = {}, {}
        root = _term(f, leaves, {}, nodes)
        uses = Counter([id(x) for _, a, b in nodes.values() for x in (a, b)])
        bindings, done = [], {}
        for t in nodes.values():
            op, a, b = t
            term = (op, done.get(id(a), a), done.get(id(b), b))
            if uses[id(t)] > 1:
                bindings.append(("#%d" % next(_KEYS), term))
                term = bindings[-1][0]
            done[id(t)] = term
        hit = f, tuple(bindings), done.get(id(root), root), tuple(leaves.items())
        _COMPILED[id(f)] = hit
    for name, _ in hit[3] if bound is not None else ():
        if name not in bound:
            raise DomainError("unbound variable %r" % name)
    return hit[1:]


def _value(bindings, root, env):
    """The root's value in env, after each binding's value is set in env under its key."""
    for key, term in bindings:
        env[key] = _evaluate(term, env)
    return _evaluate(root, env)


def eval_formula(f, alg, valuation):
    """The value in `alg` at a valuation (name -> element), by the term
    evaluator of `reslat.algebra`; derived connectives read the meet and
    join tables directly (the expansion route must agree; tested)."""
    bindings, root, leaves = _compile(f, valuation)
    env = dict(alg.cells)  # a memoryview reads a cell as an int, faster than numpy
    env.update((leaf, valuation[name]) for name, leaf in leaves)
    return int(_value(bindings, root, env))


def valuation_grid(chain, names, axioms=(), formulas=()):
    """Per chunk of the chain's valuation grid over `names`, lazily in product
    order: the chunk (leaf -> index array), the mask of the valuations making
    every axiom 1, at the chunk's shape, and the values of each formula."""
    axioms, formulas = [[_compile(f, names)[:2] for f in fs] for fs in (axioms, formulas)]
    env = dict(chain.tables)
    for grid in _grid_chunks(chain.size, ["$" + name for name in names]):
        env.update(grid)
        mask = numpy.ones(numpy.broadcast(*grid.values()).shape, dtype=bool)
        for t in axioms:
            mask &= _value(*t, env) == chain.one
        yield grid, mask, [_value(*t, env) for t in formulas]


def valuations_at(grid, mask):
    """The valuations of a chunk where mask holds, as element tuples, lazily in product order."""
    axes = [g.ravel().tolist() for g in grid.values()]
    return (tuple(ax[j] for ax, j in zip(axes, row.tolist())) for row in numpy.argwhere(mask))


def first_valuation(grid, mask):
    """The first valuation of a chunk, in product order, where mask holds,
    as an element tuple, or None; it reads no other point of the mask."""
    first = mask.argmax()
    if not mask.flat[first]:
        return None
    at = numpy.unravel_index(first, mask.shape)
    return tuple(g.ravel()[j].item() for g, j in zip(grid.values(), at))


def parse_chain_list(text):
    """Chain list syntax: 'luk:2..6,godel:3' -> list of ChainSpec, each
    piece a chain name or range as `algebra.parse_chain_name` reads it."""
    pieces = [piece for piece in text.split(",") if piece.strip()]
    out = [spec for piece in pieces for spec in parse_chain_name(piece, ranges=True)]
    if not out:
        raise InvalidSpecError("empty chain list")
    return out


@dataclass(frozen=True)
class Theory:
    axioms: tuple  # formulas
    semantics: tuple  # ChainSpec list

    def __post_init__(self):
        if not self.semantics:
            raise InvalidSpecError("theory needs a nonempty chain list")

    @classmethod
    def from_json(cls, data):
        axioms, chains = data.get("axioms", []), data["chains"]
        for key, value in (("axioms", axioms), ("chains", chains)):
            if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
                raise InvalidSpecError("theory %r must be a list of strings" % key)
        return cls(
            tuple(parse(s) for s in axioms),
            tuple(parse_chain_list(",".join(chains))),
        )


def _counterexample(specs, axioms, formula):
    """(True, None), or (False, (chain spec, valuation)) at the first valuation,
    in chain then product order, where the axioms hold and the formula does
    not; chains are built one at a time, up to that one, under the budget
    read once."""
    names = sorted(set().union(variables(formula), *map(variables, axioms)))
    budget = budgets.from_env()
    for spec in specs:
        chain = make_chain(spec, budget)
        for grid, mask, (values,) in valuation_grid(chain, names, axioms, [formula]):
            first = first_valuation(grid, mask & (values != chain.one))
            if first is not None:
                return False, (str(spec), {k: chain.label(v) for k, v in zip(names, first)})
    return True, None


def is_tautology(formula, chain_specs):
    """(True, None) or (False, (chain spec, counter-valuation))."""
    return _counterexample(chain_specs, (), formula)


def consequence(theory, formula):
    """Semantic consequence over the theory's chains: the formula holds in
    every valuation making every axiom fully true."""
    return _counterexample(theory.semantics, theory.axioms, formula)


# ---------------------------------------------------------------------------
# Lindenbaum algebras over finite-chain semantics
# ---------------------------------------------------------------------------


class LindenbaumAlgebra:
    """Formulas over n variables modulo semantic equivalence.

    It is the free algebra of the chains' core reducts over the (chain,
    valuation) pairs satisfying the theory: classes are value vectors over
    those pairs, and operations act coordinatewise.  The representative of
    a class is the first formula reaching it in breadth-first enumeration."""

    def __init__(self, algebra, vectors, reps, generator_classes):
        self.algebra = algebra
        self.vectors = vectors  # class index -> value vector
        self.reps = reps  # class index -> representative formula
        self.generator_classes = generator_classes  # class of p0..p_{n-1}


def lindenbaum(theory, n, budget=None):
    """The Lindenbaum algebra of the theory over the variables p0..p{n-1}."""
    chains = [make_chain(s) for s in theory.semantics]
    names = ["p%d" % i for i in range(n)]
    coords = [
        (ai, val)
        for ai, chain in enumerate(chains)
        for grid, mask, _ in valuation_grid(chain, names, theory.axioms)
        for val in valuations_at(grid, mask)
    ]
    if not coords:
        raise InvalidSpecError("theory has no satisfying valuations on its chains")
    variety = VarietySpec(tuple(core_reduct(c) for c in chains))
    free = free_algebra(variety, n, coords, budget)
    reps = _representatives(free.algebra, free.generators)
    labels = [str(r) if r is not None else "e%d" % i for i, r in enumerate(reps)]
    every = range(free.size)
    alg, _ = free.algebra.restrict("lindenbaum(n=%d)" % n, every, every, labels=labels)
    return LindenbaumAlgebra(alg, free.vectors, reps, list(free.generators))


def _representatives(alg, generators):
    """First formula per class, breadth-first: constants, then variables
    by index, then one-step combinations of already-named classes.  Every
    class is reachable because the universe was closed under the same
    connectives.  A candidate's class is read off the tables."""
    reps = [None] * alg.size
    for c, f in [(alg.zero, Konst(0)), (alg.one, Konst(1))] + [
        (g, Var("p%d" % i)) for i, g in enumerate(generators)
    ]:
        if reps[c] is None:
            reps[c] = f
    order = [k for k, r in enumerate(reps) if r is not None]  # classes as named

    def name(c, make, *args):
        if reps[c] is None:
            reps[c] = make(*args)
            order.append(c)

    tables = [(op, alg.cells[table]) for op, table in _TABLES.items()]
    imp, zero = alg.cells["imp"], alg.zero
    done = 0
    while done < len(order) and None in reps:
        frontier, done = order[done:], len(order)
        have = [k for k, r in enumerate(reps) if r is not None]
        for k in frontier:
            f = reps[k]
            name(imp[k, zero], Neg, f)
            for j in have:
                for op, t in tables:
                    name(t[k, j], Bin, op, f, reps[j])
                    name(t[j, k], Bin, op, reps[j], f)
    return reps


# ---------------------------------------------------------------------------
# types, generic filters, type spaces
# ---------------------------------------------------------------------------


def non_principal_certify(alg, elements):
    """Certificate: the finite meet of the listed elements is 0."""
    return alg.meet_all(elements) == alg.zero


def generic_filter(alg, inside, avoid=(), bound=None, budget=None):
    """Least maximal filter containing `inside` and avoiding every listed
    point set.

    `avoid` entries are collections of maximal filters (Filter objects or
    member frozensets)."""
    if inside == alg.zero:
        raise DomainError("inside element must be nonzero")
    maxes = enumerate_filters(alg, "maximal", bound=bound, budget=budget)
    avoid_sets = []
    for entry in avoid:
        pts = set()
        for f in entry:
            members = f.members if hasattr(f, "members") else frozenset(f)
            for i, g in enumerate(maxes):
                if g.members == members:
                    pts.add(i)
        avoid_sets.append(frozenset(pts))
    banned = frozenset().union(*avoid_sets) if avoid_sets else frozenset()
    admissible = [
        i
        for i, f in enumerate(maxes)
        if inside in f.members and i not in banned
    ]
    if not admissible:
        raise NoGenericPointError(
            "every maximal filter through %s is excluded" % alg.label(inside),
            inside=inside,
            avoid=avoid_sets,
        )
    best = min(admissible, key=lambda i: maxes[i].bitmask())
    return maxes[best]


def type_space(alg, bound=None, budget=None):
    """Maximal filters as a spectrum, each tagged with principality
    (generated by a single element)."""
    space = zariski_sets(alg, bound=bound, budget=budget)
    tags = [f.members == upset(alg, alg.meet_all(f.members)) for f in space.max_points]
    return space, tags


def isolated_dense_check(alg, bound=None, budget=None):
    """Isolated (principal) points are dense: every nonempty basic open
    D_M(a) of the type space contains a principal point.  Returns
    (True, None), or (False, ("basic-open", a)) for the first a whose D_M(a)
    holds none."""
    space, tags = type_space(alg, bound=bound, budget=budget)
    dm = ~space.vm  # row a: D_M(a)
    bad = dm.any(axis=1) & ~dm[:, numpy.array(tags, dtype=bool)].any(axis=1)
    if bad.any():
        return False, ("basic-open", int(bad.argmax()))
    return True, None


def join_of_atoms_is_one(alg):
    """Dense-set join shadow, instantiated with X = the atoms: when some
    atom sits below every nonzero element, their join is 1.

    Holds in complemented algebras; the underlying argument needs
    b ^ -b = 0 and fails on chains, so callers should expect
    False there."""
    return not is_atomic(alg)[0] or alg.join_all(atoms(alg)) == alg.one
