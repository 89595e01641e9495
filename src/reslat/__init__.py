"""reslat: a finite-scale workbench for BL/MV/Heyting algebras and their logics."""

from .algebra import (
    AxiomReport,
    ChainSpec,
    FiniteAlgebra,
    Signature,
    check_class_axioms,
    load_algebra,
    make_chain,
    residuum_closed_form,
    subalgebra_generate,
    tnorm_eval,
)
from .budgets import Budget
from .spectra import (
    Filter,
    SpectrumSpace,
    TheoryPair,
    enumerate_filters,
    generate_filter,
    pair_complete_extension,
    pair_consistent,
    zariski_sets,
)

__all__ = [
    "AxiomReport",
    "Budget",
    "ChainSpec",
    "Filter",
    "FiniteAlgebra",
    "Signature",
    "SpectrumSpace",
    "TheoryPair",
    "check_class_axioms",
    "enumerate_filters",
    "generate_filter",
    "load_algebra",
    "make_chain",
    "pair_complete_extension",
    "pair_consistent",
    "residuum_closed_form",
    "subalgebra_generate",
    "tnorm_eval",
    "zariski_sets",
]

__version__ = "0.1.0"
