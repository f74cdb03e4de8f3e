"""Interval solver for category invariants over a linked catalog.

Every space carries one interval per invariant in the chain

    cup <= sigmacat <= cat <= Cat

(wcat is recorded when facts mention it but never propagated).  Each rule is
one generator of candidate bounds (space, invariant, side, value, detail)
read from the current state.  A candidate only raises a lower end or cuts an
upper end, so the rules are monotone maps on a finite lattice: applying them
in any order until nothing changes reaches the same fixpoint.  A seed may
shuffle the rule order; the result is identical by construction.  The first
five rules read only the catalog and run in the first pass alone.

Rules, in canonical order:
  ring-cup       longest nonzero product in a presented ring -> cup.lower
                 (and cup.upper when the presentation is declared complete)
  ring-weight    weighted variant -> sigmacat.lower
  recorded-fact  known lower/upper/exact statements
  dimension      Cat.upper <= dim
  cone-bundle    certified stagewise bound -> Cat.upper of the total space
  product        cat and Cat uppers add across declared products
  fiber-base     (Cat F + 1)(Cat B + 1) - 1 fallback, only where the
                 stagewise bound refuses, applied to cat.upper
  chain          lower ends push up the chain, upper ends push down

Each bundle is certified once per solve.  Provenance is one more pass over
the same generators, in canonical order, on the final state: each settled
end is credited to the first candidate equal to it.  A space whose interval
ends cross (possible only if the declared inputs are themselves
inconsistent) is reported as a contradiction with a provenance entry per
side; remaining spaces are unaffected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .catalog import Catalog
from .cones import BoundRefused, general_bundle_bound, main_theorem_bound, product_bound
from .cup import WeightAssignment, cup_length, weighted_wgt_lower

CHAIN = ("cup", "sigmacat", "cat", "Cat")

_RULE_NAMES = (
    "ring-cup",
    "ring-weight",
    "recorded-fact",
    "dimension",
    "cone-bundle",
    "product",
    "fiber-base",
    "chain",
)

# These rules read only the catalog, so their candidates are the same on every
# pass, and a satisfied candidate stays satisfied: the fixpoint applies them in
# its first pass only.
_STATIC_RULES = ("ring-cup", "ring-weight", "recorded-fact", "dimension", "cone-bundle")


@dataclass
class Interval:
    lower: int = 0
    upper: int | None = None  # None is "no upper bound known"

    @property
    def determined(self) -> bool:
        return self.upper is not None and self.upper == self.lower

    @property
    def crossed(self) -> bool:
        return self.upper is not None and self.upper < self.lower

    def raise_lower(self, value: int) -> bool:
        if value > self.lower:
            self.lower = value
            return True
        return False

    def cut_upper(self, value: int) -> bool:
        if self.upper is None or value < self.upper:
            self.upper = value
            return True
        return False

    def __str__(self):
        if self.determined:
            return str(self.lower)
        hi = "inf" if self.upper is None else str(self.upper)
        return f"[{self.lower},{hi}]"


@dataclass(frozen=True)
class Provenance:
    space: str
    invariant: str
    side: str  # lower | upper
    value: int
    rule: str
    detail: str


@dataclass
class Contradiction:
    space: str
    invariant: str
    lower: Provenance
    upper: Provenance


@dataclass
class GaneaResult:
    space: str
    status: str  # holds | unknown
    rule: str | None  # cup-equality | sigmacat-equality


@dataclass
class SpaceState:
    intervals: dict[str, Interval] = field(default_factory=dict)

    @property
    def has_wcat(self) -> bool:
        return "wcat" in self.intervals


@dataclass
class Solution:
    states: dict[str, SpaceState]
    provenance: dict[str, list[Provenance]]
    contradictions: list[Contradiction]

    def interval(self, space: str, invariant: str) -> Interval:
        return self.states[space].intervals[invariant]

    def contradiction_for(self, space: str) -> Contradiction | None:
        for c in self.contradictions:
            if c.space == space:
                return c
        return None


class _RingCache:
    """cup/weighted searches are pure in the ring, so share them, each with
    its witness text formatted once.

    With unit weights the weighted search is the cup search, so a unit-weight
    weighted result is the cup result relabelled as weighted, not a second
    search."""

    def __init__(self, max_search: int | None):
        self.max_nodes = max_search
        self.cup: dict = {}
        self.weighted: dict = {}

    def cup_result(self, ring) -> tuple[int, str]:
        """(value, "witness ...") of the cup search."""
        if ring not in self.cup:
            result = cup_length(ring, max_nodes=self.max_nodes)
            self.cup[ring] = (result.value, f"witness {result.witness_str(ring)}")
        return self.cup[ring]

    def weighted_result(self, ring, loopspace_even: bool) -> tuple[int, str]:
        """(value, "weighted witness ...") of the weighted search."""
        key = (ring, loopspace_even)
        if key not in self.weighted:
            weights = WeightAssignment.for_space(ring, loopspace_even)
            if all(w == 1 for w in weights.weights):
                value, witness = self.cup_result(ring)
            else:
                result = weighted_wgt_lower(ring, weights, max_nodes=self.max_nodes)
                value, witness = result.value, f"witness {result.witness_str(ring)}"
            self.weighted[key] = (value, f"weighted {witness}")
        return self.weighted[key]


def _certify(catalog: Catalog) -> list:
    """Every bundle, in name order, with its stagewise bound, or None where
    the certificate refuses it: one certification per bundle per solve."""
    certified = []
    for bundle in sorted(catalog.bundles.values(), key=lambda b: b.name):
        try:
            bound = main_theorem_bound(bundle)
        except BoundRefused:
            bound = None
        certified.append((bundle, bound))
    return certified


# -- rules -------------------------------------------------------------------
# Each rule yields candidate bounds (space, invariant, side, value, detail)
# from the current state; `bundles` is `_certify`'s list.


def _rule_ring_cup(catalog, states, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            value, witness = cache.cup_result(space.ring)
            yield name, "cup", "lower", value, witness
            if space.cohomology.complete:
                yield name, "cup", "upper", value, "complete presentation"


def _rule_ring_weight(catalog, states, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            value, witness = cache.weighted_result(space.ring, space.loopspace_even)
            yield name, "sigmacat", "lower", value, witness


def _rule_recorded_fact(catalog, states, cache, bundles):
    for fact in catalog.facts:
        if fact.qualifier in ("lower", "exact"):
            yield fact.space, fact.invariant, "lower", fact.value, fact.citation
        if fact.qualifier in ("upper", "exact"):
            yield fact.space, fact.invariant, "upper", fact.value, fact.citation


def _rule_dimension(catalog, states, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.dim is not None:
            yield name, "Cat", "upper", space.dim, f"dim {space.dim}"


def _rule_cone_bundle(catalog, states, cache, bundles):
    for bundle, bound in bundles:
        if bound is not None:
            m = bundle.fiber_decomposition.length
            detail = f"bundle {bundle.name}: {m} + {bundle.base_dim}//{bundle.d}"
            yield bundle.total, "Cat", "upper", bound, detail


def _rule_product(catalog, states, cache, bundles):
    for prod in catalog.products:
        left = states[prod.left].intervals
        right = states[prod.right].intervals
        for inv in ("cat", "Cat"):
            a, b = left[inv].upper, right[inv].upper
            if a is not None and b is not None:
                detail = f"{prod.left} x {prod.right}: {a} + {b}"
                yield prod.total, inv, "upper", product_bound(a, b), detail


def _rule_fiber_base(catalog, states, cache, bundles):
    # only where the stagewise bound refuses
    for bundle, bound in bundles:
        if bound is not None:
            continue
        f = states[bundle.fiber].intervals["cat"].upper
        b = states[bundle.base].intervals["cat"].upper
        if f is not None and b is not None:
            detail = f"bundle {bundle.name}: ({f}+1)({b}+1)-1"
            yield bundle.total, "cat", "upper", general_bundle_bound(f, b), detail


_CHAIN_STEPS = tuple(
    (lo, hi, f"{lo} lower end", f"{hi} upper end") for lo, hi in zip(CHAIN, CHAIN[1:])
)


def _rule_chain(catalog, states, cache, bundles):
    for name, state in states.items():
        intervals = state.intervals
        for lo, hi, lower_detail, upper_detail in _CHAIN_STEPS:
            yield name, hi, "lower", intervals[lo].lower, lower_detail
            upper = intervals[hi].upper
            if upper is not None:
                yield name, lo, "upper", upper, upper_detail


_RULES = {
    "ring-cup": _rule_ring_cup,
    "ring-weight": _rule_ring_weight,
    "recorded-fact": _rule_recorded_fact,
    "dimension": _rule_dimension,
    "cone-bundle": _rule_cone_bundle,
    "product": _rule_product,
    "fiber-base": _rule_fiber_base,
    "chain": _rule_chain,
}


def propagate(
    catalog: Catalog,
    rule_seed: int | None = None,
    max_search: int | None = None,
) -> Solution:
    with_wcat = {f.space for f in catalog.facts if f.invariant == "wcat"}
    states = {}
    for name in catalog.spaces:
        intervals = {inv: Interval() for inv in CHAIN}
        if name in with_wcat:
            intervals["wcat"] = Interval()
        states[name] = SpaceState(intervals)

    order = list(_RULE_NAMES)
    if rule_seed is not None:
        random.Random(rule_seed).shuffle(order)
    rule_args = (catalog, states, _RingCache(max_search), _certify(catalog))
    intervals_of = {name: state.intervals for name, state in states.items()}

    changed = True
    while changed:
        changed = False
        for rule_name in order:
            for space, inv, side, value, _ in _RULES[rule_name](*rule_args):
                iv = intervals_of[space][inv]
                if side == "lower":
                    changed |= iv.raise_lower(value)
                else:
                    changed |= iv.cut_upper(value)
        order = [rule_name for rule_name in order if rule_name not in _STATIC_RULES]

    solution = Solution(states, {}, [])
    _attach_provenance(solution, rule_args)
    return solution


# -- provenance --------------------------------------------------------------
# Justifications are read off the fixpoint rather than logged during
# iteration, so the report does not depend on the rule order: each settled
# end goes to the first candidate, in canonical rule order, equal to it.


def _attach_provenance(solution: Solution, rule_args: tuple) -> None:
    states = solution.states
    found: dict[tuple[str, str, str], Provenance] = {}
    for rule_name in _RULE_NAMES:
        for space, inv, side, value, detail in _RULES[rule_name](*rule_args):
            key = (space, inv, side)
            if key not in found:
                iv = states[space].intervals[inv]
                if value == (iv.lower if side == "lower" else iv.upper):
                    found[key] = Provenance(space, inv, side, value, rule_name, detail)

    def justify(name, inv, side, value):
        entry = found.get((name, inv, side))
        return entry or Provenance(name, inv, side, value, "derived", "")

    for name in sorted(states):
        entries = []
        contradiction = None
        # chain invariants first, then wcat: the order the intervals are made
        for inv, iv in states[name].intervals.items():
            lower_p = upper_p = None
            if iv.lower > 0:
                lower_p = justify(name, inv, "lower", iv.lower)
                entries.append(lower_p)
            if iv.upper is not None:
                upper_p = justify(name, inv, "upper", iv.upper)
                entries.append(upper_p)
            if iv.crossed and contradiction is None:
                # bounds crossed: the declared inputs for this space are
                # inconsistent; report both sides of the first crossing (one
                # report per space is enough) and leave the space out of any
                # further reading
                if lower_p is None:
                    lower_p = Provenance(name, inv, "lower", iv.lower, "trivial", "")
                contradiction = Contradiction(name, inv, lower_p, upper_p)
        solution.provenance[name] = entries
        if contradiction is not None:
            solution.contradictions.append(contradiction)


def ganea_check(solution: Solution, space: str) -> GaneaResult:
    """Does cat(X x S^n) = cat(X) + 1 follow from the computed intervals?

    Two sufficient conditions are tried: cat equal to the cup bound, and cat
    equal to the stabilized bound sigmacat.  Anything else is reported as
    unknown; the check never claims a failure.
    """
    state = solution.states[space]
    if solution.contradiction_for(space) is not None:
        return GaneaResult(space, "unknown", None)
    cat = state.intervals["cat"]
    if not cat.determined:
        return GaneaResult(space, "unknown", None)
    cup = state.intervals["cup"]
    if cup.determined and cup.lower == cat.lower:
        return GaneaResult(space, "holds", "cup-equality")
    sigma = state.intervals["sigmacat"]
    if sigma.determined and sigma.lower == cat.lower:
        return GaneaResult(space, "holds", "sigmacat-equality")
    return GaneaResult(space, "unknown", None)
