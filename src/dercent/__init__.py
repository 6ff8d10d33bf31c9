"""Exact centralizers of linear derivations on polynomial rings.

Everything runs in exact rational arithmetic: sparse multivariate
polynomials over the rationals, derivations of the polynomial ring with
their Lie bracket, matrix commutants, the generator construction for
the centralizer of the basic Weitzenboeck derivation, and brute-force
linear-algebra oracles that independently verify each construction on
degree truncations.
"""

__version__ = "0.1.0"

from .derivation import (
    Derivation,
    PolyAutomorphism,
    annihilates_ratfunc,
    conjugate,
)
from .errors import (
    DimensionError,
    InternalInconsistencyError,
    NotDivisibleError,
    PreconditionError,
    RegistryError,
    ResourceLimitError,
)
from .linearder import (
    FDecomposition,
    decompose_over_constants,
    jordan_nilpotent,
    linear_derivation,
    matrix_commutant,
    verify_decomposition,
)
from .oracle import (
    GradedBasis,
    RankResult,
    centralizer_basis,
    derivation_span_equal,
    kernel_generator_candidates,
    kernel_power_basis,
    module_span_check,
    rank_over_fractions,
    symbolic_rank,
)
from .poly import Poly, poly_divexact
from .ratfunc import RatFunc
from .registry import KernelEntry, load_registry, registry_entry
from .weitzenboeck import (
    CentralizerGenerator,
    GeneratorSet,
    Sl2Triple,
    centralizer_generators,
    commuting_derivation,
    generator_set,
    isobaric_components,
    kernel_dimensions,
    monomial_weight,
    sl2_triple,
    weitzenboeck_derivation,
)

__all__ = [
    "__version__",
    "CentralizerGenerator",
    "Derivation",
    "DimensionError",
    "FDecomposition",
    "GeneratorSet",
    "GradedBasis",
    "InternalInconsistencyError",
    "KernelEntry",
    "NotDivisibleError",
    "Poly",
    "PolyAutomorphism",
    "PreconditionError",
    "RankResult",
    "RatFunc",
    "RegistryError",
    "ResourceLimitError",
    "Sl2Triple",
    "annihilates_ratfunc",
    "centralizer_basis",
    "centralizer_generators",
    "commuting_derivation",
    "conjugate",
    "decompose_over_constants",
    "derivation_span_equal",
    "generator_set",
    "isobaric_components",
    "jordan_nilpotent",
    "kernel_dimensions",
    "kernel_generator_candidates",
    "kernel_power_basis",
    "linear_derivation",
    "load_registry",
    "matrix_commutant",
    "module_span_check",
    "monomial_weight",
    "poly_divexact",
    "rank_over_fractions",
    "registry_entry",
    "sl2_triple",
    "symbolic_rank",
    "verify_decomposition",
    "weitzenboeck_derivation",
]
