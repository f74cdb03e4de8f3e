"""Category bounds for symbolically presented spaces.

Lower bounds come from cup-length searches in graded-commutative ring
presentations (optionally weighted); upper bounds from certified stagewise
cone constructions, products and dimension; an interval solver squeezes the
two sides together over a linked catalog of rings, spaces, bundles and
recorded facts.
"""

from .algebra import (
    AlgebraError,
    Generator,
    Monomial,
    RingPresentation,
    Substitution,
    degree,
    multiply_monomials,
    nilpotency_order,
    normal_form,
)
from .catalog import Catalog, LinkError, link
from .cones import (
    BoundRefused,
    BundleRecord,
    CompatibilityCertificate,
    ConeDecomposition,
    ConeError,
    ConeStage,
    FiltrationLedger,
    Verdict,
    check_compatibility,
    filtration_ledger,
    general_bundle_bound,
    james_ganea_bound,
    main_theorem_bound,
    product_bound,
)
from .corpus import CorpusError, load_corpus
from .cup import (
    CupResult,
    SearchBudgetExceeded,
    cup_bruteforce_oracle,
    cup_length,
    space_weights,
    weighted_wgt_lower,
)
from .dsl import (
    Diagnostic,
    KnownFact,
    ProductDecl,
    SourceDocument,
    parse,
    render,
    ring_presentation,
)
from .solver import (
    Contradiction,
    GaneaResult,
    Interval,
    Provenance,
    Solution,
    ganea_check,
    propagate,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "BoundRefused",
    "BundleRecord",
    "Catalog",
    "CompatibilityCertificate",
    "ConeDecomposition",
    "ConeError",
    "ConeStage",
    "Contradiction",
    "CorpusError",
    "CupResult",
    "Diagnostic",
    "FiltrationLedger",
    "GaneaResult",
    "Generator",
    "Interval",
    "KnownFact",
    "LinkError",
    "Monomial",
    "ProductDecl",
    "Provenance",
    "RingPresentation",
    "SearchBudgetExceeded",
    "Solution",
    "SourceDocument",
    "Substitution",
    "Verdict",
    "check_compatibility",
    "cup_bruteforce_oracle",
    "cup_length",
    "degree",
    "filtration_ledger",
    "ganea_check",
    "general_bundle_bound",
    "james_ganea_bound",
    "link",
    "load_corpus",
    "main_theorem_bound",
    "multiply_monomials",
    "nilpotency_order",
    "normal_form",
    "parse",
    "product_bound",
    "propagate",
    "render",
    "ring_presentation",
    "space_weights",
    "weighted_wgt_lower",
]
