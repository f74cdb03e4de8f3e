"""Category bounds for symbolically presented spaces.

Lower bounds come from cup-length searches in graded-commutative ring
presentations (optionally weighted); upper bounds from certified stagewise
cone constructions, products and dimension; an interval solver squeezes the
two sides together over a linked catalog of rings, spaces, bundles and
recorded facts.
"""

from .algebra import RingPresentation
from .corpus import load_corpus
from .cup import cup_length, space_weights, weighted_wgt_lower
from .solver import ganea_check, propagate

__version__ = "0.1.0"

__all__ = [
    "RingPresentation",
    "cup_length",
    "ganea_check",
    "load_corpus",
    "propagate",
    "space_weights",
    "weighted_wgt_lower",
]
