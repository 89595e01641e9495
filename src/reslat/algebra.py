"""Finite algebras as operation tables.

The single carrier type is `FiniteAlgebra`: a universe 0..n-1 together with
named operation tables over a declared signature.  Chains built from the
Lukasiewicz and Godel t-norms use exact rationals for labels; no floating
point enters the core anywhere.
"""

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from itertools import product as iproduct
from math import prod

import numpy

from . import budgets
from .errors import (
    DomainError,
    InvalidSpecError,
    ReslatError,
    ResourceError,
    SignatureError,
)

# ops every algebra must carry
CORE_OPS = (
    ("join", 2),
    ("meet", 2),
    ("star", 2),
    ("imp", 2),
    ("zero", 0),
    ("one", 0),
)
CORE_NAMES = frozenset(n for n, _ in CORE_OPS)
# ops an MV algebra may carry besides the core ones
MV_OPS = (("oplus", 2), ("odot", 2), ("neg", 1))
# names that belong to the (residuated/MV) structure rather than to
# "extra" operators in the BAO sense
STRUCTURAL_NAMES = CORE_NAMES | {n for n, _ in MV_OPS}


@dataclass(frozen=True)
class Signature:
    """Declared operation names with arities; names must be unique."""

    ops: tuple  # tuple of (name, arity)

    def __post_init__(self):
        names = [n for n, _ in self.ops]
        if len(set(names)) != len(names):
            raise SignatureError("duplicate op names in signature")
        for _, ar in self.ops:
            if ar not in (0, 1, 2):
                raise SignatureError("arity must be 0, 1 or 2")

    def arity(self, name):
        for n, ar in self.ops:
            if n == name:
                return ar
        raise SignatureError("unknown op %r" % name)

    def names(self):
        return [n for n, _ in self.ops]

    def __contains__(self, name):
        return any(n == name for n, _ in self.ops)


def _table_array(t, arity, size, opname):
    """The table as an integer array, after one shape check.

    Entries must be integers (Python or numpy); floats and booleans are
    rejected, not truncated.  Their range is checked by the caller."""
    try:
        arr = numpy.asarray(t)
    except ValueError:  # ragged rows
        raise SignatureError("table %r has wrong shape" % opname) from None
    if arr.shape != (size,) * arity:
        raise SignatureError(
            "table %r has shape %s, expected %s" % (opname, arr.shape, (size,) * arity)
        )
    # a bool among ints still gives an int array, so lists are scanned too
    if arr.dtype.kind not in "iu" or (
        arity
        and not isinstance(t, numpy.ndarray)
        and bool in set(map(type, chain.from_iterable(t) if arity == 2 else t))
    ):
        raise SignatureError("table %r holds non-integer entries" % opname)
    return arr


def _non_element(opname, value):
    return SignatureError("table %r contains non-element %r" % (opname, value))


def _check_elements(checked, size):
    """Raise for the first (op, table) of `checked` with an entry outside
    0..size-1."""
    for opname, arr in checked:
        bad = (arr < 0) | (arr >= size)
        if bad.any():
            raise _non_element(opname, arr[bad].flat[0].item())


def _given_stack(rows, shape):
    """The writeable int32 array of `shape` whose rows, in order, are the
    tables `rows`, when a caller built them so; else None.  The stack of
    an algebra is read-only, so no algebra takes over another's."""
    base = getattr(rows[0], "base", None) if rows else None
    if not (
        isinstance(base, numpy.ndarray)
        and base.flags.writeable
        and base.dtype == numpy.int32
        and base.shape == shape
        and all(r.base is base and r.strides == base.strides[1:] for r in rows)
    ):
        return None
    start, step = base.ctypes.data, base.strides[0]
    return base if all(r.ctypes.data == start + i * step for i, r in enumerate(rows)) else None


def _take_grid(t, index):
    """The table t at `index` on every axis: t[index] for a unary table,
    t[index[:, None], index] for a binary one, a constant as it is.  It
    gathers with `take`, rows first, which is 3x faster than broadcast
    indexing on a 256 x 256 table."""
    for axis in range(t.ndim):
        t = t.take(index, axis)
    return t


class FiniteAlgebra:
    """Universe 0..size-1 plus one table per signature operation.

    Each table is kept once, as int32.  The binary tables are one
    (k, size, size) stack and the unary ones one (u, size) stack; ops
    given the same table object share one slot of it.  `tables` maps an
    op to its read-only view of the stack, and a constant to an int.
    `cells` maps it to a memoryview over the same buffer, whose reads
    `[a]` and `[a, b]` give Python ints, and a constant to the same int;
    the scalar accessors read those.  A caller may hand in the tables of
    an arity as the rows, in slot order, of one writeable int32 stack;
    the algebra then keeps that stack without a copy.  The stacks are
    read-only: values are immutable after construction, and all
    operations on the algebra are pure.
    """

    def __init__(self, name, size, signature, tables, labels=None):
        if size < 1:
            raise InvalidSpecError("size must be positive")
        self.name = name
        self.size = size
        self.signature = signature
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != size:
            raise InvalidSpecError("labels length must equal size")
        # one slot per distinct table object of arity 1 or 2 in the stack of its arity
        slot_of, rows = {}, {1: [], 2: []}  # (arity, id of a table) -> slot; the table per slot
        self._slot = {}
        for opname, arity in signature.ops:
            if arity and opname in tables:
                key = (arity, id(tables[opname]))
                if key not in slot_of:
                    slot_of[key] = len(rows[arity])
                    rows[arity].append(tables[opname])
                self._slot[opname] = slot_of[key]
        self._stacks, fill = {}, {}  # fill: the tables are still to be copied into the stack
        for ar in (1, 2):
            shape = (len(rows[ar]),) + (size,) * ar
            given = _given_stack(rows[ar], shape)
            fill[ar] = given is None
            self._stacks[ar] = numpy.empty(shape, dtype=numpy.int32) if fill[ar] else given
        # Shapes and entry types are checked per op, entry ranges once per
        # stack; an error first checks the ranges of the ops before it, so the
        # first faulty op in signature order is named.  A table wider than
        # int32, whose entries the stack could wrap into range, is checked alone.
        checked, consts = [], {}  # (op, array) per binary or unary op, in signature order
        for opname, arity in signature.ops:
            try:
                if opname not in tables:
                    raise SignatureError("missing table for %r" % opname)
                arr = _table_array(tables[opname], arity, size, opname)
                if arity == 0:
                    consts[opname] = int(arr)
                    if not 0 <= consts[opname] < size:
                        raise _non_element(opname, consts[opname])
                    continue
                if not numpy.can_cast(arr.dtype, numpy.int32):
                    _check_elements([(opname, arr)], size)
            except SignatureError:
                _check_elements(checked, size)
                raise
            checked.append((opname, arr))
            if fill[arity]:
                self._stacks[arity][self._slot[opname]] = arr
        # as uint32 a negative entry is at least 2**31
        if any(stack.view(numpy.uint32).max(initial=0) >= size for stack in self._stacks.values()):
            _check_elements(checked, size)
        extra = set(tables) - set(signature.names())
        if extra:
            raise SignatureError("tables without signature entry: %s" % sorted(extra))
        views, cells = {}, {}  # per (arity, slot); ops sharing a slot share these objects
        for ar, stack in self._stacks.items():
            stack.flags.writeable = False
            for slot, view in enumerate(stack):
                views[ar, slot], cells[ar, slot] = view, memoryview(view)
        self.tables, self.cells = {}, {}
        for opname, arity in signature.ops:
            at = (arity, self._slot.get(opname))
            self.tables[opname] = views[at] if arity else consts[opname]
            self.cells[opname] = cells[at] if arity else consts[opname]
        # per class axiom id, its first witness, or None when the axiom
        # holds: filled in by `_axiom_failures` as it completes each axiom
        self._axiom_verdicts = {}

    # ---- basic access -------------------------------------------------

    def apply(self, name, *args):
        t = self.cells[name]
        if len(args) != self.signature.arity(name):
            raise SignatureError("op %r expects %d args" % (name, self.signature.arity(name)))
        return t[args] if args else t

    def const(self, name):
        return self.apply(name)

    @property
    def zero(self):
        return self.cells["zero"]

    @property
    def one(self):
        return self.cells["one"]

    def join(self, a, b):
        return self.cells["join"][a, b]

    def meet(self, a, b):
        return self.cells["meet"][a, b]

    def star(self, a, b):
        return self.cells["star"][a, b]

    def imp(self, a, b):
        return self.cells["imp"][a, b]

    def leq(self, a, b):
        """Lattice order: whether a <= b, read from `order`."""
        return bool(self.order[a, b])

    def meet_all(self, xs):
        """The meet of xs, folded left to right from 1 (the empty meet)."""
        acc, meet = self.one, self.cells["meet"]
        for x in xs:
            acc = meet[acc, x]
        return acc

    def join_all(self, xs):
        """The join of xs, folded left to right from 0 (the empty join)."""
        acc, join = self.zero, self.cells["join"]
        for x in xs:
            acc = join[acc, x]
        return acc

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return "e%d" % i

    def element_index(self, ref):
        """Resolve an element by label, 'e<k>' name or integer index."""
        if isinstance(ref, int):
            if 0 <= ref < self.size:
                return ref
            raise DomainError("element index out of range: %r" % ref)
        ref = str(ref)
        if self.labels is not None and ref in self.labels:
            return self.labels.index(ref)
        if ref.startswith("e") and ref[1:].isdigit():
            return self.element_index(int(ref[1:]))
        if ref.isdigit():
            return self.element_index(int(ref))
        raise DomainError("unknown element %r of %s" % (ref, self.name))

    def extra_operator_names(self):
        """Unary ops beyond the residuated/MV structure (c_i, q_i, s_t, ...)."""
        return [
            n
            for n, ar in self.signature.ops
            if ar == 1 and n not in STRUCTURAL_NAMES
        ]

    def moved(self, ops):
        """Bool matrix whose entry [i, x] says whether the unary op ops[i]
        moves x; x is a fixed point of every op where its column is False."""
        tables = numpy.array([self.np_table(name) for name in ops], dtype=numpy.int32)
        return tables.reshape(-1, self.size) != numpy.arange(self.size)

    def np_table(self, name):
        """The int32 table of an op, for the bulk kernels: its `tables`
        entry, a read-only view of the stack of its arity, or a 0-d array
        for a constant."""
        t = self.tables[name]
        return numpy.array(t, dtype=numpy.int32) if type(t) is int else t

    @cached_property
    def order(self):
        """The lattice order as a read-only bool matrix: a <= b iff
        meet(a, b) == a, at [a, b].  Every order question reads it.  It is
        defined on every table, faulty ones included, where it need not
        be a partial order (see `partial_order`)."""
        le = self.tables["meet"] == numpy.arange(self.size)[:, None]
        le.flags.writeable = False
        return le

    @cached_property
    def partial_order(self):
        """`order`, or None when it is not a partial order: a table read
        from a file need not be a lattice."""
        le, n = self.order, self.size
        if not le.diagonal().all() or (le & le.T).sum() != n:
            return None
        step = max(1, (1 << 22) // (n * n))  # bounds the n^3 test's memory
        for lo in range(0, n, step):
            rows = le[lo : lo + step]
            # a <= b and b <= c, for a in rows, must give a <= c
            if ((rows[:, :, None] & le[None, :, :]).any(axis=1) & ~rows).any():
                return None
        return le

    def restrict(self, name, elements, index, ops=None, labels=None):
        """The algebra on `elements` (parent elements, one per new element)
        with the tables of `ops` (default: every op), each entry mapped
        through `index`: parent element -> new element, -1 where a result
        leaves the new universe.

        Returns (algebra, None), or (None, (op, args)) for the first result
        outside, in signature order and then row order, args being parent
        elements."""
        names = self.signature.names() if ops is None else ops
        elements = numpy.asarray(elements, dtype=numpy.intp)
        index = numpy.asarray(index, dtype=numpy.int32)
        can_leave = (index < 0).any()
        sig = tuple((op, self.signature.arity(op)) for op in names)
        tables, built = {}, {}  # built: per (arity, parent slot), the new table
        for op, arity in sig:
            slot = (arity, self._slot.get(op))
            if arity and slot in built:  # ops sharing a parent slot share one table
                tables[op] = built[slot]
                continue
            new = index.take(_take_grid(self.np_table(op), elements))
            if can_leave and (new < 0).any():
                at = numpy.unravel_index((new < 0).argmax(), new.shape)
                return None, (op, tuple(elements[list(at)].tolist()))
            tables[op] = built[slot] = new
        return FiniteAlgebra(name, len(elements), Signature(sig), tables, labels=labels), None

    def __repr__(self):
        return "FiniteAlgebra(%r, size=%d)" % (self.name, self.size)

    # ---- JSON ----------------------------------------------------------

    def to_json(self):
        ops = {op: t if type(t) is int else t.tolist() for op, t in self.tables.items()}
        data = {"format": "reslat/1", "name": self.name, "size": self.size, "ops": ops}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise InvalidSpecError("an algebra must be a JSON object")
        size, ops = data["size"], data["ops"]
        if type(size) is not int:  # bool is a subclass of int
            raise InvalidSpecError("size must be an integer, not %r" % (size,))
        if not isinstance(ops, dict):
            raise InvalidSpecError("ops must be an object mapping names to tables")
        title, labels = data.get("name", "algebra"), data.get("labels")
        if type(title) is not str:
            raise InvalidSpecError("name must be a string, not %r" % (title,))
        if labels is not None and not (isinstance(labels, list) and all(type(x) is str for x in labels)):
            raise InvalidSpecError("labels must be a list of strings, not %r" % (labels,))
        sig = []
        for name in sorted(ops):
            t = ops[name]
            if not isinstance(t, list):
                sig.append((name, 0))
            elif t and isinstance(t[0], list):
                sig.append((name, 2))
            else:
                sig.append((name, 1))
        arity = dict(sig)
        for name, want in CORE_OPS + MV_OPS:
            required = name in CORE_NAMES
            if name not in arity:
                if required:
                    raise InvalidSpecError("algebra lacks required op %r" % name)
            elif arity[name] != want:
                kind = ("a constant", "a unary table", "a binary table")[want]
                raise InvalidSpecError("%s %r must be %s" % ("required op" if required else "op", name, kind))
        return cls(title, size, Signature(tuple(sig)), ops, labels=labels)

    @classmethod
    def load(cls, path):
        return load_json(path, cls.from_json)


def load_json(path, build):
    """build(data) for the JSON object in the file at path.  A file that is
    not UTF-8 JSON, holds no object at its top level, or lacks a key that
    build reads, is an InvalidSpecError naming the path; any other package
    error of build keeps its class and gets the path before its message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidSpecError("%s is not UTF-8 text: %s" % (path, exc)) from None
        except json.JSONDecodeError as exc:
            raise InvalidSpecError("%s is not JSON: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise InvalidSpecError("%s does not hold a JSON object" % path)
    try:
        return build(data)
    except KeyError as exc:
        raise InvalidSpecError("%s lacks key %s" % (path, exc)) from None
    except ReslatError as exc:
        exc.args = ("%s: %s" % (path, exc),)
        raise


# ---------------------------------------------------------------------------
# t-norm chains
# ---------------------------------------------------------------------------

# The one kind-name table: each chain kind and the short name it prints
# as; chain names may spell a kind either way, in any case.
_SHORT_NAMES = {"lukasiewicz": "luk", "godel": "godel"}
CHAIN_KINDS = tuple(_SHORT_NAMES)
_KIND_OF = {name: kind for kind, short in _SHORT_NAMES.items() for name in (kind, short)}
# [builtin:]KIND:N, or the range [builtin:]KIND:N..M
_CHAIN_NAME = re.compile(r"(?:builtin:)?(?i:(%s)):([0-9]+)(?:\.\.([0-9]+))?" % "|".join(_KIND_OF))


@dataclass(frozen=True)
class ChainSpec:
    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise InvalidSpecError("unknown chain kind %r" % self.kind)
        if self.size < 2:
            raise InvalidSpecError("chain size must be >= 2")

    def __str__(self):
        return "%s:%d" % (_SHORT_NAMES[self.kind], self.size)


def chain_closed_form(kind, i, j, den, lo=min, hi=max):
    """star, imp and (Lukasiewicz only) oplus of i/den and j/den, as
    numerators over den: the Lukasiewicz and Godel t-norms and residua
    (Hajek 1998, ch. 2).  i and j are ints, or numpy index grids with
    lo=numpy.minimum and hi=numpy.maximum."""
    if kind == "lukasiewicz":
        return hi(0, i + j - den), lo(den, den - i + j), lo(den, i + j)
    return lo(i, j), hi(j, den * (i <= j))


def _unit_points(x, y):
    x, y = Fraction(x), Fraction(y)
    for v in (x, y):
        if not 0 <= v.numerator <= v.denominator:
            raise DomainError("value %s outside [0,1]" % v)
    return x, y


def _closed_form_at(kind, x, y, op):
    """Operation op (0 star, 1 imp) of chain_closed_form at Fractions x, y,
    read over their common denominator."""
    den = x.denominator * y.denominator
    i, j = x.numerator * y.denominator, y.numerator * x.denominator
    return Fraction(chain_closed_form(kind, i, j, den)[op], den)


def tnorm_eval(kind, x, y):
    """Exact value of the named t-norm at rational points of [0,1]."""
    x, y = _unit_points(x, y)
    if kind == "product":
        return x * y
    if kind not in CHAIN_KINDS:
        raise DomainError("unknown t-norm kind %r" % kind)
    return _closed_form_at(kind, x, y, 0)


def residuum_closed_form(kind, x, y):
    """Closed-form residuum max{z : x*z <= y} for the two chain t-norms."""
    x, y = _unit_points(x, y)
    if kind not in CHAIN_KINDS:
        raise DomainError("no grid-closed residuum for kind %r" % kind)
    return _closed_form_at(kind, x, y, 1)


def _check_chain_budget(size, budget=None):
    """Raise ResourceError when a chain of `size` elements is over the chain budget."""
    limit = (budget or budgets.from_env()).chain
    if size > limit:
        raise ResourceError("chain of %d elements over budget %d" % (size, limit))


def make_chain(spec, budget=None):
    """Chain algebra on {0, 1/(n-1), ..., 1} for the given t-norm kind.

    Raises ResourceError over the chain budget, before any table is
    built, and also when a chain of that size was built before.
    Memoized: algebras are never changed after construction, so every
    caller can share one chain per spec."""
    if not isinstance(spec, ChainSpec):
        spec = ChainSpec(*spec)
    _check_chain_budget(spec.size, budget)
    return _chain(spec)


@lru_cache(maxsize=32)
def _chain(spec):
    """The chain algebra of a ChainSpec, built once per spec."""
    n = spec.size
    den = n - 1
    labels = [str(Fraction(i, den)) for i in range(n)]
    i, j = numpy.ogrid[:n, :n]
    tables = [numpy.maximum(i, j), numpy.minimum(i, j)]  # join, meet
    tables += chain_closed_form(spec.kind, i, j, den, numpy.minimum, numpy.maximum)
    binary = list(numpy.array(tables, dtype=numpy.int32))  # the algebra takes this stack as it is
    ops = dict(zip(("join", "meet", "star", "imp", "oplus"), binary), zero=0, one=den)
    sig = list(CORE_OPS)
    if spec.kind == "lukasiewicz":
        ops["odot"] = ops["star"]
        ops["neg"] = den - numpy.arange(n)
        sig += MV_OPS
    return FiniteAlgebra(str(spec), n, Signature(tuple(sig)), ops, labels=labels)


def parse_chain_name(text, ranges=False):
    """The ChainSpecs a chain name stands for: [builtin:]KIND:N, and with
    `ranges` also [builtin:]KIND:N..M (none when M < N).  KIND is luk,
    lukasiewicz or godel, in any case; N and M are decimal digits.

    Raises InvalidSpecError on any other text, and ResourceError, before a
    range is expanded, when its largest chain is over the chain budget."""
    text = text.strip()
    m = _CHAIN_NAME.fullmatch(text)
    if m is None or (m[3] is not None and not ranges):
        raise InvalidSpecError("bad chain %r" % text)
    lo = int(m[2])
    hi = lo if m[3] is None else int(m[3])
    _check_chain_budget(hi)
    return [ChainSpec(_KIND_OF[m[1].lower()], n) for n in range(lo, hi + 1)]


def parse_builtin(text):
    """The chain algebra named [builtin:]KIND:N."""
    (spec,) = parse_chain_name(text)
    return make_chain(spec)


def load_algebra(ref):
    """Load an algebra from a builtin chain name or a JSON file path."""
    if _CHAIN_NAME.fullmatch(ref.strip()):
        return parse_builtin(ref)
    return FiniteAlgebra.load(ref)


# ---------------------------------------------------------------------------
# class axiom checking
# ---------------------------------------------------------------------------

ALGEBRA_CLASSES = ("residuated-lattice", "bl", "mv", "heyting", "boolean")


@dataclass
class AxiomReport:
    class_checked: str
    passed: bool
    violations: list = field(default_factory=list)  # (axiom id, witness tuple)

    def witness(self, axiom_id):
        for aid, w in self.violations:
            if aid == axiom_id:
                return w
        return None

    def failed_ids(self):
        return [aid for aid, _ in self.violations]


def _derived_mv_ops(alg):
    """oplus/odot/neg arrays, from the algebra's own tables when present,
    else via neg a = a -> 0, odot = star, oplus(a,b) = neg(neg a odot neg b)."""
    if "neg" in alg.signature:
        neg = alg.np_table("neg")
    else:
        neg = alg.np_table("imp")[:, alg.zero]
    odot = alg.np_table("odot" if "odot" in alg.signature else "star")
    if "oplus" in alg.signature:
        oplus = alg.np_table("oplus")
    else:
        oplus = neg.take(_take_grid(odot, neg))
    return oplus, odot, neg


# Each axiom is (id, lhs, rhs) and holds when both sides agree for every
# assignment of elements to its variables.  A term is a variable ("a",
# "b", "c", which are also the positions in a witness tuple), a constant
# ("0", "1") or (op, term, ...).  ("<=", s, t) is the lattice order as a
# truth value, so an identity between two of them is an equivalence.
_VARIABLES = ("a", "b", "c")
_LATTICE = (
    ("join-comm", ("join", "a", "b"), ("join", "b", "a")),
    ("meet-comm", ("meet", "a", "b"), ("meet", "b", "a")),
    ("join-assoc", ("join", "a", ("join", "b", "c")), ("join", ("join", "a", "b"), "c")),
    ("meet-assoc", ("meet", "a", ("meet", "b", "c")), ("meet", ("meet", "a", "b"), "c")),
    ("absorb-1", ("join", "a", ("meet", "a", "b")), "a"),
    ("absorb-2", ("meet", "a", ("join", "a", "b")), "a"),
    ("bound-top", ("meet", "a", "1"), "a"),
    ("bound-bottom", ("join", "a", "0"), "a"),
)
_RESIDUATED = _LATTICE + (
    ("star-comm", ("star", "a", "b"), ("star", "b", "a")),
    ("star-assoc", ("star", "a", ("star", "b", "c")), ("star", ("star", "a", "b"), "c")),
    ("star-unit", ("star", "1", "a"), "a"),
    ("adjunction", ("<=", "c", ("imp", "a", "b")), ("<=", ("star", "a", "c"), "b")),
)
_STAR_IS_MEET = ("star-is-meet", ("star", "a", "b"), ("meet", "a", "b"))
_AXIOMS = {
    "residuated-lattice": _RESIDUATED,
    "bl": _RESIDUATED + (
        ("prelinearity", ("join", ("imp", "a", "b"), ("imp", "b", "a")), "1"),
        ("divisibility", ("star", "a", ("imp", "a", "b")), ("meet", "a", "b")),
    ),
    "heyting": _RESIDUATED + (_STAR_IS_MEET,),
    "boolean": _RESIDUATED + (
        _STAR_IS_MEET,
        ("excluded-middle", ("join", "a", ("imp", "a", "0")), "1"),
    ),
    "mv": (
        ("mv1-oplus-comm", ("oplus", "a", "b"), ("oplus", "b", "a")),
        ("mv1-odot-comm", ("odot", "a", "b"), ("odot", "b", "a")),
        ("mv2-oplus-assoc", ("oplus", "a", ("oplus", "b", "c")), ("oplus", ("oplus", "a", "b"), "c")),
        ("mv2-odot-assoc", ("odot", "a", ("odot", "b", "c")), ("odot", ("odot", "a", "b"), "c")),
        ("mv3-oplus-zero", ("oplus", "a", "0"), "a"),
        ("mv3-odot-one", ("odot", "a", "1"), "a"),
        ("mv4-oplus-one", ("oplus", "a", "1"), "1"),
        ("mv4-odot-zero", ("odot", "a", "0"), "0"),
        ("mv5-oplus-neg", ("oplus", "a", ("neg", "a")), "1"),
        ("mv5-odot-neg", ("odot", "a", ("neg", "a")), "0"),
        ("mv6-demorgan-oplus", ("neg", ("oplus", "a", "b")), ("odot", ("neg", "a"), ("neg", "b"))),
        ("mv6-demorgan-odot", ("neg", ("odot", "a", "b")), ("oplus", ("neg", "a"), ("neg", "b"))),
        ("mv7-double-neg", ("neg", ("neg", "a")), "a"),
        ("mv7-neg-zero", ("neg", "0"), "1"),
        (
            "mv8-lukasiewicz",
            ("oplus", ("neg", ("oplus", ("neg", "a"), "b")), "b"),
            ("oplus", ("neg", ("oplus", ("neg", "b"), "a")), "a"),
        ),
    ),
}
# grid points evaluated at once, unless one n**2 plane of the grid is more
_GRID_CHUNK = 1 << 16


def _variables(term):
    if isinstance(term, str):
        return {term} & set(_VARIABLES)
    return set().union(*map(_variables, term[1:]))


# per class: (id, arity, lhs, rhs), the arity being the number of variables
_SUITES = {
    cls: tuple((aid, len(_variables(lhs) | _variables(rhs)), lhs, rhs) for aid, lhs, rhs in axioms)
    for cls, axioms in _AXIOMS.items()
}


def _grid_chunks(n, names):
    """All assignments of n elements to `names` in itertools.product order,
    lazily in chunks of at most max(_GRID_CHUNK, n**2) points, each one broadcast
    index array per variable: leading variables are fixed until the rest fit."""
    k, fixed = len(names), 0
    while k - fixed > 3 and n ** (k - fixed - 1) > _GRID_CHUNK:
        fixed += 1
    rows = max(1, _GRID_CHUNK // n ** max(k - fixed - 1, 0))
    shapes = [[-1 if j == i else 1 for j in range(k)] for i in range(k)]
    for head in iproduct(range(n), repeat=fixed):
        for lo in range(0, n if k else 1, rows):
            spans = [(h, h + 1) for h in head] + [(lo, min(n, lo + rows))] + [(0, n)] * (k - fixed - 1)
            yield {v: numpy.arange(*span).reshape(sh) for v, span, sh in zip(names, spans, shapes)}


def first_valuation(grid, mask):
    """The first valuation of a `_grid_chunks` chunk, in product order,
    where mask holds, as an element tuple, or None; it reads no other
    point of the mask.  Chunks are in C order, so the flat mask is in
    product order."""
    first = mask.argmax()
    if not mask.flat[first]:
        return None
    at = numpy.unravel_index(first, mask.shape)
    return tuple(g.ravel()[j].item() for g, j in zip(grid.values(), at))


def _evaluate(term, env):
    """Value of a term, broadcast over the variable grids in env; a leaf is any non-tuple.

    A term is walked as a tree.  `logic` compiles each formula so that a
    subterm read twice or more is a leaf whose value it set in env first.

    The grid reads stay broadcast indexing.  With a flat-index `take`
    instead, the residuated-lattice suite took 26% and 17% longer on the
    4- and 8-element chains, and 15% to 43% less only from 16 elements
    on (2-core x86-64, numpy 2.4)."""
    if type(term) is not tuple:
        return env[term]
    x = _evaluate(term[1], env)
    if len(term) == 2:
        return env[term[0]][x]
    return env[term[0]][x, _evaluate(term[2], env)]


def check_class_axioms(alg, cls):
    """Exhaustively evaluate a class axiom suite; first witness per axiom,
    the first failing tuple in itertools.product order.  Each axiom's
    verdict is computed once per algebra and kept on it, beside `order`,
    once its evaluation has completed: bl, heyting and boolean read the
    residuated-lattice verdicts an earlier check left."""
    violations = list(_axiom_failures(alg, cls))
    return AxiomReport(cls, not violations, violations)


def _axiom_failures(alg, cls):
    """(axiom id, first witness) of each failing axiom of the suite, lazily
    in suite order, so a caller that needs only a verdict stops at the
    first failure.  Each axiom is evaluated once per algebra: its verdict
    is written to the algebra's record only when its evaluation has
    completed, so a caller that stops early leaves no partial entry, and
    later calls read it from there."""
    for name in ("join", "meet", "star", "imp"):
        if name not in alg.signature:
            raise SignatureError("class check needs core op %r" % name)
    if cls not in _SUITES:
        raise DomainError("unknown algebra class %r" % cls)
    env = {name: alg.np_table(name) for name in ("join", "meet", "star", "imp")}
    env.update({"<=": alg.order, "0": alg.zero, "1": alg.one})
    if cls == "mv":
        env.update(zip(("oplus", "odot", "neg"), _derived_mv_ops(alg)))
    record, grids = alg._axiom_verdicts, {}
    for aid, arity, lhs, rhs in _SUITES[cls]:
        if aid in record:
            witness = record[aid]
        else:
            if arity not in grids:
                grids[arity] = list(_grid_chunks(alg.size, _VARIABLES[:arity]))
            witness = None
            for grid in grids[arity]:
                env.update(grid)
                witness = first_valuation(grid, _evaluate(lhs, env) != _evaluate(rhs, env))
                if witness is not None:
                    break
            record[aid] = witness
        if witness is not None:
            yield aid, witness


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def _gather(alg, slots, left, right=None):
    """The tables in `slots` of the unary stack at `left`, shape
    (slots, left), or of the binary stack at left x right, shape
    (slots, left, right).

    This one gather stays broadcast indexing.  A flat-index `take` made
    the small Sg closures of interpolant searches slower: the median
    free-congruence job took 21% longer.  `.take(slots, 0)` first copies
    whole tables, which made the interpolant jobs 2.8x slower (2-core
    x86-64, numpy 2.4)."""
    if right is None:
        return alg._stacks[1][slots[:, None], left]
    return alg._stacks[2][slots[:, None, None], left[:, None], right]


def _closure(a, members, b=None, images=None):
    """Sg(members) in `a`, the least set holding `members` and the
    constants that every op maps into itself, as a bool mask over the
    universe.

    With a target algebra `b`, member i is sent to images[i] and each
    constant of `a` to that of `b`, and the map is carried along every op:
    (mask, image array, defined on the mask), or None when two images meet
    at one element, so that no homomorphism a -> b extends the map.

    Each round applies every op to the elements new in the last round
    (the frontier) against every known element, frontier x known and
    known x frontier, with one gather per arity from the table stacks.
    The gathers run in frontier-row chunks of at most _GRID_CHUNK entries,
    or one row when a row is more."""
    consts = [op for op, ar in a.signature.ops if ar == 0]
    seed = numpy.array([*members, *map(a.const, consts)], dtype=numpy.intp)
    inside = numpy.zeros(a.size, dtype=bool)
    inside[seed] = True
    image = None
    if b is not None:
        want = numpy.array([*images, *map(b.const, consts)], dtype=numpy.int32)
        image = numpy.zeros(a.size, dtype=numpy.int32)
        image[seed] = want
        if (image[seed] != want).any():
            return None
    slots = {}  # per arity: the distinct slots of a's stack, and the matching ones of b's
    for arity in (1, 2):
        ops = [op for op, ar in a.signature.ops if ar == arity]
        pairs = sorted({(a._slot[op], b._slot[op] if b else 0) for op in ops})
        slots[arity] = numpy.array(pairs, dtype=numpy.intp).reshape(-1, 2).T
    frontier = known = numpy.flatnonzero(inside)
    while len(frontier):
        before = inside.copy()
        rows = max(1, _GRID_CHUNK // max(1, slots[2].shape[1] * len(known)))
        for lo in range(0, len(frontier), rows):
            new = frontier[lo : lo + rows]
            for arity, left, right in ((1, new, None), (2, new, known), (2, known, new)):
                vals = _gather(a, slots[arity][0], left, right).ravel()
                fresh = ~inside[vals]
                inside[vals[fresh]] = True
                if b is not None:
                    at = (image[left], None if right is None else image[right])
                    imgs = _gather(b, slots[arity][1], *at).ravel()
                    image[vals[fresh]] = imgs[fresh]
                    if (image[vals] != imgs).any():
                        return None
        frontier = numpy.flatnonzero(inside & ~before)
        known = numpy.flatnonzero(inside)
    return inside if b is None else (inside, image)


def subalgebra_generate(alg, seed):
    """Sg: least subset containing seed and the constants, closed under ops."""
    return frozenset(numpy.flatnonzero(_closure(alg, seed)).tolist())


# ---------------------------------------------------------------------------
# order-closed, operation-closed subsets: filters, ideals, kernel ideals
# ---------------------------------------------------------------------------


def bitmask(members):
    """The set as an integer with bit i set for each member i."""
    return sum(1 << i for i in members)


def enumerate_closed(alg, universe, up, const, binary=(), unary=()):
    """Every up-set (up=True) or down-set of `universe` that contains
    `const` and is closed under the binary and unary ops (names) wherever
    their values lie in `universe`, as frozensets sorted by bitmask.

    When `principal_closed` shows that every such set is principal, those
    are read off its candidates.  Otherwise Ganter's NextClosure lists the
    fixed points of `generate_closed` in lectic order, larger elements
    first, which is the bitmask order; it needs no order on the table, so
    it is complete on every table (B. Ganter, Two basic algorithms in
    concept analysis, 1984)."""
    masks = principal_closed(alg, universe, up, const, binary, unary)
    if masks is not None:
        return [frozenset(numpy.flatnonzero(m).tolist()) for m in masks]
    return _next_closure(alg, universe, up, const, binary, unary)


def _next_closure(alg, universe, up, const, binary, unary):
    """`enumerate_closed` by NextClosure, without the principal-set test."""
    uni = sorted(universe)

    def close(seed):
        return generate_closed(alg, seed, up, const, binary, unary, uni)

    out = [close(())]
    while True:
        for e in uni:  # the least significant element first
            if e not in out[-1]:
                above = {x for x in out[-1] if x > e}
                nxt = close(above | {e})
                if {x for x in nxt if x > e} == above:
                    out.append(nxt)
                    break
        else:
            return out


def principal_closed(alg, universe, up, const, binary=(), unary=()):
    """The sets of `enumerate_closed` as bool rows over the elements,
    sorted by bitmask, or None when the tables do not show that they are
    all principal.

    The gate: `meet` is a partial order, some binary op is given, and
    every binary op maps U x U into the universe U with values below
    (up-sets) or above (down-sets) both arguments, as star and meet lie
    below meet in an integral residuated lattice and join and oplus above
    join.  A closed set then holds the fold of a binary op over its
    members, which lies below (above) all of them, so it is the principal
    up-set (down-set) in U of that element (Galatos, Jipsen, Kowalski and
    Ono, Residuated Lattices, 2007).  The candidates are the |U| principal
    sets; each op is checked on a chunk of them with one broadcast."""
    le = alg.partial_order
    if le is None or not binary:
        return None
    below = le if up else le.T  # below[x, y]: y lies in the closure direction of x
    uni = numpy.array(sorted(universe), dtype=numpy.intp)
    inside = numpy.zeros(alg.size, dtype=bool)
    inside[uni] = True
    tables = [_take_grid(alg.np_table(name), uni) for name in binary]
    for t in tables:
        if not (inside.take(t).all() and below[t, uni[:, None]].all() and below[t, uni].all()):
            return None
    unary = [_take_grid(alg.np_table(name), uni) for name in unary]
    cands = below[uni] & inside
    cands = cands[cands[:, const]]
    step = max(1, (1 << 20) // max(1, len(uni) ** 2))  # bounds each broadcast
    keep = []
    for lo in range(0, len(cands), step):
        chunk = cands[lo : lo + step]
        on = chunk[:, uni]
        ok = numpy.ones(len(chunk), dtype=bool)
        for t in tables:
            stray = on[:, :, None] & on[:, None, :] & ~chunk.take(t, 1)
            ok &= ~stray.any(axis=(1, 2))
        for u in unary:
            ok &= ~(on & ~chunk.take(u, 1) & inside.take(u)).any(axis=1)
        keep.append(chunk[ok])
    kept = numpy.concatenate(keep) if keep else cands
    return kept[numpy.lexsort(kept.T)]


def member_rows(size, sets):
    """Bool matrix whose row i says which of the elements 0..size-1 lie
    in the i-th of `sets`."""
    out = numpy.zeros((len(sets), size), dtype=bool)
    for i, members in enumerate(sets):
        out[i, list(members)] = True
    return out


def splits(alg, op, sets, universe=None):
    """For each row of the bool matrix `sets` (`member_rows`), whether
    op(a, b) in the set forces a or b into it, for a and b in `universe`
    (default: every element): primeness of a filter under join, of an
    ideal under meet.  Each chunk of rows is one broadcast."""
    t = alg.np_table(op)
    out = ~sets
    if universe is not None:
        uni = numpy.array(sorted(universe), dtype=numpy.intp)
        t = _take_grid(t, uni)
        out = out[:, uni]
    step = max(1, (1 << 20) // max(1, t.size))  # bounds each broadcast
    ok = numpy.empty(len(sets), dtype=bool)
    for lo in range(0, len(sets), step):
        o = out[lo : lo + step]
        stray = sets[lo : lo + step].take(t, 1) & o[:, :, None] & o[:, None, :]
        ok[lo : lo + step] = ~stray.any(axis=(1, 2))
    return ok


def generate_closed(alg, seed, up, const, binary=(), unary=(), universe=None):
    """Least up-set (up=True) or down-set of `universe` (default: every
    element) that contains `seed` and `const` and is closed under the
    binary and unary ops (names); values outside `universe` are ignored.

    Each round takes the elements new in the last round (the frontier):
    their up-sets are rows of `order`, their down-sets columns, and every
    op is applied to them against every element found, frontier x found
    and found x frontier."""
    order = alg.order
    binary = [alg.np_table(name) for name in binary]
    unary = [alg.np_table(name) for name in unary]
    inside = numpy.zeros(alg.size, dtype=bool)
    inside[slice(None) if universe is None else list(universe)] = True
    found = numpy.zeros(alg.size, dtype=bool)
    found[[*seed, const]] = True
    fresh = known = found.nonzero()[0]
    while len(fresh):
        reach = order[fresh].any(axis=0) if up else order[:, fresh].any(axis=1)
        for t in unary:
            reach[t.take(fresh)] = True
        for t in binary:
            reach[t.take(fresh, 0).take(known, 1)] = True
            reach[t.take(known, 0).take(fresh, 1)] = True
        reach &= inside
        reach &= ~found
        fresh = reach.nonzero()[0]
        found[fresh] = True
        known = found.nonzero()[0]
    return frozenset(known.tolist())


def union_closure(basis):
    """Every union of basis sets, given as bitmasks, the empty union 0
    included: the opens of the finite topology the basis generates."""
    out = {0}
    for b in set(basis):
        out |= {u | b for u in out}
    return out


def product(algs, name=None):
    """Componentwise product; elements enumerated lexicographically."""
    if not algs:
        raise InvalidSpecError("empty product")
    sig = algs[0].signature
    for a in algs[1:]:
        if a.signature.ops != sig.ops:
            raise SignatureError("product requires a shared signature")
    sizes = [a.size for a in algs]
    size = prod(sizes)
    # element i has coordinate i // strides[j] % sizes[j] in factor j
    strides = [prod(sizes[j + 1 :]) for j in range(len(algs))]
    coords = [numpy.arange(size) // s % n for s, n in zip(strides, sizes)]
    tables, built = {}, {}  # built: per arity and slot in every factor, the product table
    for opname, arity in sig.ops:
        if arity == 0:
            tables[opname] = sum(a.const(opname) * s for a, s in zip(algs, strides))
            continue
        slots = (arity, *(a._slot[opname] for a in algs))
        if slots not in built:  # ops sharing a slot in every factor share one table
            built[slots] = sum(
                _take_grid(a.np_table(opname), c) * s for a, c, s in zip(algs, coords, strides)
            )
        tables[opname] = built[slots]
    factor_labels = [[a.label(x) for x in range(a.size)] for a in algs]
    labels = ["(" + ",".join(parts) + ")" for parts in iproduct(*factor_labels)]
    return FiniteAlgebra(
        name or " x ".join(a.name for a in algs),
        size,
        sig,
        tables,
        labels=labels,
    )


def generating_sequence(alg, hint=None, start=()):
    """A small generating sequence, greedily grown from constants + start."""
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
    """All homomorphisms a -> b, by generator-image search.

    `seed` optionally pins images of some elements.  Results come in a
    deterministic order (generator images scanned ascending).  At each
    level the map pinned so far is closed over Sg of its elements.
    """
    base = list(seed.keys()) if seed else []
    gens = generating_sequence(a, hint=gens, start=base)
    results = []

    def dfs(level, images):
        if limit is not None and len(results) >= limit:
            return
        current = dict(seed) if seed else {}
        current.update(zip(gens[:level], images))
        closed = _closure(a, current.keys(), b, current.values())
        if closed is None:
            return
        inside, image = closed
        if injective:
            used = image[inside]
            if numpy.bincount(used, minlength=1).max() > 1:  # two elements share an image
                return
        if level == len(gens):
            results.append(tuple(image.tolist()))
            return
        for img in range(b.size):
            dfs(level + 1, images + [img])

    dfs(0, [])
    return results


def iso_check(a, b, gens=None):
    """Search for an isomorphism a -> b; returns the map or None."""
    if a.size != b.size or a.signature.ops != b.signature.ops:
        return None
    found = homomorphisms(a, b, injective=True, gens=gens, limit=1)
    if not found:
        return None
    m = found[0]
    if len(set(m)) != a.size:
        return None
    return m


def first_hom_failure(a, b, mapping):
    """None when the full element map a -> b respects every table, else the
    first failing (op, args), in signature order and then row order."""
    m = numpy.asarray(mapping, dtype=numpy.int32)
    checked = set()  # (arity, slot in a, slot in b): ops sharing both slots have one check
    for opname, arity in a.signature.ops:
        if arity == 0:
            if m[a.const(opname)] != b.const(opname):
                return (opname, ())
            continue
        slots = (arity, a._slot[opname], b._slot[opname])
        if slots in checked:
            continue
        checked.add(slots)
        got = m.take(a.np_table(opname))
        want = _take_grid(b.np_table(opname), m)
        if not numpy.array_equal(got, want):
            return (opname, tuple(numpy.argwhere(got != want)[0].tolist()))
    return None


def is_homomorphism(a, b, mapping):
    """Verify a full element map a -> b against every table."""
    return first_hom_failure(a, b, mapping) is None


def complement(alg, x):
    """First c with x join c = 1 and x meet c = 0, or None."""
    for c in range(alg.size):
        if alg.join(x, c) == alg.one and alg.meet(x, c) == alg.zero:
            return c
    return None


def core_reduct(alg):
    """Restriction to the six required core ops (for mixed-signature products)."""
    every = range(alg.size)
    return alg.restrict(alg.name + "#core", every, every, [n for n, _ in CORE_OPS], alg.labels)[0]


def lattice_reduct(alg):
    """The bounded-lattice reduct (join/meet/zero/one only)."""
    every = range(alg.size)
    ops = ("join", "meet", "zero", "one")
    return alg.restrict(alg.name + "#lattice", every, every, ops, alg.labels)[0]
