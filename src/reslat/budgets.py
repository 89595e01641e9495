"""Size budgets guarding the exhaustive searches.

Defaults can be overridden with the RESLAT_BUDGET environment variable,
either a bare integer (replaces the generic enumeration bounds) or a
comma list of ``name=value`` pairs, e.g. ``RESLAT_BUDGET=spectrum=40,closure=2097152``.
"""

import os
from dataclasses import dataclass, replace

from .errors import InvalidSpecError, ResourceError


@dataclass(frozen=True)
class Budget:
    # max candidate set during free-algebra / Lindenbaum closure
    closure: int = 1 << 20
    # max algebra size for exhaustive filter/ideal enumeration
    spectrum: int = 12
    # max total assignment count in a Kripke set algebra
    kripke_assignments: int = 16
    # max number of elements of a Kripke set algebra (explicit tables)
    kripke_universe: int = 1024
    # max amalgam candidate size
    amalgam_size: int = 64
    # max n in the tau(z^n) phase of interpolant search
    tau_power: int = 4
    # max section-space search size in the sheaf module
    sections: int = 1 << 16
    # max number of elements of a t-norm chain (its tables hold n^2 entries)
    chain: int = 1024

    def scaled(self, **kw):
        return replace(self, **kw)


def check_size(what, size, bound, default):
    """The size gate of the exhaustive enumerations: the caller's bound,
    else the budget default; a larger size is a ResourceError stating both."""
    limit = default if bound is None else bound
    if size > limit:
        raise ResourceError("%s (size %d) over bound %d" % (what, size, limit))


def from_env():
    """Budget from RESLAT_BUDGET, falling back to the defaults."""
    budget = Budget()
    raw = os.environ.get("RESLAT_BUDGET", "").strip()
    if not raw:
        return budget
    if raw.isdigit():
        n = int(raw)
        return budget.scaled(spectrum=n, amalgam_size=n)
    fields = {}
    for piece in raw.split(","):
        if not piece.strip():
            continue
        name, _, value = piece.partition("=")
        name = name.strip()
        if name not in Budget.__dataclass_fields__ or not value.strip().isdigit():
            raise InvalidSpecError("bad RESLAT_BUDGET entry: %r" % piece)
        fields[name] = int(value)
    return budget.scaled(**fields)

