"""Interval solver for category invariants over a linked catalog.

Every space carries one interval per invariant in the chain

    cup <= sigmacat <= cat <= Cat

(wcat is recorded when facts mention it but never propagated).  Rules only
ever raise lower ends and cut upper ends, so the rule set is a family of
monotone maps on a finite lattice: iterating them in any order until nothing
changes reaches the same fixpoint.  A seed may shuffle the rule order; the
result is identical by construction.

Rules:
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

A space whose interval ends cross (possible only if the declared inputs are
themselves inconsistent) is reported as a contradiction with a provenance
entry per side; remaining spaces are unaffected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .catalog import Catalog
from .cones import BoundRefused, general_bundle_bound, main_theorem_bound
from .cup import CupResult, WeightAssignment, cup_length, weighted_wgt_lower

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
    name: str
    intervals: dict[str, Interval] = field(default_factory=dict)

    def interval(self, invariant: str) -> Interval:
        return self.intervals[invariant]

    @property
    def has_wcat(self) -> bool:
        return "wcat" in self.intervals


@dataclass
class Solution:
    catalog: Catalog
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
    """cup/weighted searches are pure in the ring, so share them.

    With unit weights the weighted search is the cup search, so a unit-weight
    weighted result is the cup result relabelled as weighted, not a second
    search."""

    def __init__(self, max_search: int | None):
        self.max_search = max_search
        self.cup: dict = {}
        self.weighted: dict = {}

    def _kwargs(self):
        return {} if self.max_search is None else {"max_nodes": self.max_search}

    def cup_result(self, ring) -> CupResult:
        if ring not in self.cup:
            self.cup[ring] = cup_length(ring, **self._kwargs())
        return self.cup[ring]

    def weighted_result(self, ring, loopspace_even: bool) -> CupResult:
        key = (ring, loopspace_even)
        if key not in self.weighted:
            weights = WeightAssignment.for_space(ring, loopspace_even)
            if all(w == 1 for w in weights.weights):
                cup = self.cup_result(ring)
                self.weighted[key] = CupResult(cup.value, cup.witness, True)
            else:
                self.weighted[key] = weighted_wgt_lower(
                    ring, weights, **self._kwargs()
                )
        return self.weighted[key]


# -- rules -------------------------------------------------------------------
# Each rule scans the whole catalog and strengthens intervals in place,
# returning whether anything changed.


def _rule_ring_cup(catalog, states, cache) -> bool:
    changed = False
    for name, info in catalog.spaces.items():
        if info.ring is None:
            continue
        result = cache.cup_result(info.ring)
        iv = states[name].intervals["cup"]
        changed |= iv.raise_lower(result.value)
        if info.ring_complete:
            changed |= iv.cut_upper(result.value)
    return changed


def _rule_ring_weight(catalog, states, cache) -> bool:
    changed = False
    for name, info in catalog.spaces.items():
        if info.ring is None:
            continue
        result = cache.weighted_result(info.ring, info.loopspace_even)
        changed |= states[name].intervals["sigmacat"].raise_lower(result.value)
    return changed


def _rule_recorded_fact(catalog, states, cache) -> bool:
    changed = False
    for fact in catalog.facts:
        iv = states[fact.space].intervals[fact.invariant]
        if fact.qualifier in ("lower", "exact"):
            changed |= iv.raise_lower(fact.value)
        if fact.qualifier in ("upper", "exact"):
            changed |= iv.cut_upper(fact.value)
    return changed


def _rule_dimension(catalog, states, cache) -> bool:
    changed = False
    for name, info in catalog.spaces.items():
        if info.dim is not None:
            changed |= states[name].intervals["Cat"].cut_upper(info.dim)
    return changed


def _rule_cone_bundle(catalog, states, cache) -> bool:
    changed = False
    for bundle in catalog.bundles.values():
        try:
            bound = main_theorem_bound(bundle)
        except BoundRefused:
            continue
        changed |= states[bundle.total].intervals["Cat"].cut_upper(bound)
    return changed


def _rule_product(catalog, states, cache) -> bool:
    changed = False
    for prod in catalog.products:
        left = states[prod.left].intervals
        right = states[prod.right].intervals
        total = states[prod.total].intervals
        for inv in ("cat", "Cat"):
            a, b = left[inv].upper, right[inv].upper
            if a is not None and b is not None:
                changed |= total[inv].cut_upper(a + b)
    return changed


def _rule_fiber_base(catalog, states, cache) -> bool:
    changed = False
    for bundle in catalog.bundles.values():
        try:
            main_theorem_bound(bundle)
        except BoundRefused:
            pass
        else:
            continue
        f = states[bundle.fiber].intervals["cat"].upper
        b = states[bundle.base].intervals["cat"].upper
        if f is None or b is None:
            continue
        bound = general_bundle_bound(f, b)
        changed |= states[bundle.total].intervals["cat"].cut_upper(bound)
    return changed


def _rule_chain(catalog, states, cache) -> bool:
    changed = False
    for state in states.values():
        for lo_inv, hi_inv in zip(CHAIN, CHAIN[1:]):
            lo, hi = state.intervals[lo_inv], state.intervals[hi_inv]
            changed |= hi.raise_lower(lo.lower)
            if hi.upper is not None:
                changed |= lo.cut_upper(hi.upper)
    return changed


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
    states = {}
    for name in catalog.spaces:
        intervals = {inv: Interval() for inv in CHAIN}
        if any(f.invariant == "wcat" for f in catalog.facts_for(name)):
            intervals["wcat"] = Interval()
        states[name] = SpaceState(name, intervals)

    order = list(_RULE_NAMES)
    if rule_seed is not None:
        random.Random(rule_seed).shuffle(order)
    cache = _RingCache(max_search)

    changed = True
    while changed:
        changed = False
        for rule_name in order:
            changed |= _RULES[rule_name](catalog, states, cache)

    solution = Solution(catalog, states, {}, [])
    _attach_provenance(solution, cache)
    return solution


# -- provenance --------------------------------------------------------------
# Justifications are reconstructed against the fixpoint rather than logged
# during iteration, so the report does not depend on the rule order: for each
# settled bound we name the first rule (in the canonical order) that yields
# exactly that bound from the final state.


def _justify(solution, cache, name, invariant, side, value) -> Provenance:
    catalog = solution.catalog
    states = solution.states
    info = catalog.spaces[name]

    def hit(rule, detail):
        return Provenance(name, invariant, side, value, rule, detail)

    if side == "lower":
        if invariant == "cup" and info.ring is not None:
            result = cache.cup_result(info.ring)
            if result.value == value:
                return hit("ring-cup", f"witness {result.witness_str(info.ring)}")
        if invariant == "sigmacat" and info.ring is not None:
            result = cache.weighted_result(info.ring, info.loopspace_even)
            if result.value == value:
                return hit(
                    "ring-weight",
                    f"weighted witness {result.witness_str(info.ring)}",
                )
        for fact in catalog.facts_for(name):
            if (
                fact.invariant == invariant
                and fact.qualifier in ("lower", "exact")
                and fact.value == value
            ):
                return hit("recorded-fact", fact.citation)
        pos = CHAIN.index(invariant) if invariant in CHAIN else -1
        if pos > 0:
            below = states[name].intervals[CHAIN[pos - 1]]
            if below.lower == value:
                return hit("chain", f"{CHAIN[pos - 1]} lower end")
        return hit("derived", "")

    # upper side
    if invariant == "cup" and info.ring is not None and info.ring_complete:
        result = cache.cup_result(info.ring)
        if result.value == value:
            return hit("ring-cup", "complete presentation")
    for fact in catalog.facts_for(name):
        if (
            fact.invariant == invariant
            and fact.qualifier in ("upper", "exact")
            and fact.value == value
        ):
            return hit("recorded-fact", fact.citation)
    if invariant == "Cat":
        if info.dim == value:
            return hit("dimension", f"dim {info.dim}")
        for bundle in sorted(catalog.bundles_with_total(name), key=lambda b: b.name):
            try:
                bound = main_theorem_bound(bundle)
            except BoundRefused:
                continue
            if bound == value:
                m = bundle.fiber_decomposition.length
                return hit(
                    "cone-bundle",
                    f"bundle {bundle.name}: {m} + {bundle.base_dim}//{bundle.d}",
                )
    if invariant in ("cat", "Cat"):
        for prod in catalog.products_with_total(name):
            a = states[prod.left].intervals[invariant].upper
            b = states[prod.right].intervals[invariant].upper
            if a is not None and b is not None and a + b == value:
                return hit("product", f"{prod.left} x {prod.right}: {a} + {b}")
    if invariant == "cat":
        for bundle in sorted(catalog.bundles_with_total(name), key=lambda b: b.name):
            try:
                main_theorem_bound(bundle)
            except BoundRefused:
                pass
            else:
                continue
            f = states[bundle.fiber].intervals["cat"].upper
            b = states[bundle.base].intervals["cat"].upper
            if f is not None and b is not None and general_bundle_bound(f, b) == value:
                return hit(
                    "fiber-base",
                    f"bundle {bundle.name}: ({f}+1)({b}+1)-1",
                )
    pos = CHAIN.index(invariant) if invariant in CHAIN else len(CHAIN)
    if 0 <= pos < len(CHAIN) - 1:
        above = states[name].intervals[CHAIN[pos + 1]]
        if above.upper == value:
            return hit("chain", f"{CHAIN[pos + 1]} upper end")
    return hit("derived", "")


def _attach_provenance(solution: Solution, cache) -> None:
    for name in sorted(solution.states):
        state = solution.states[name]
        entries = []
        invariants = [inv for inv in CHAIN] + (
            ["wcat"] if state.has_wcat else []
        )
        for inv in invariants:
            iv = state.intervals[inv]
            lower_p = upper_p = None
            if iv.lower > 0:
                lower_p = _justify(solution, cache, name, inv, "lower", iv.lower)
                entries.append(lower_p)
            if iv.upper is not None:
                upper_p = _justify(solution, cache, name, inv, "upper", iv.upper)
                entries.append(upper_p)
            if iv.crossed:
                # bounds crossed: the declared inputs for this space are
                # inconsistent; report both sides and leave the space out of
                # any further reading
                if lower_p is None:
                    lower_p = Provenance(name, inv, "lower", iv.lower, "trivial", "")
                solution.contradictions.append(
                    Contradiction(name, inv, lower_p, upper_p)
                )
        solution.provenance[name] = entries
    solution.contradictions.sort(key=lambda c: (c.space, CHAIN.index(c.invariant)))
    # one report per space is enough
    seen = set()
    unique = []
    for c in solution.contradictions:
        if c.space not in seen:
            seen.add(c.space)
            unique.append(c)
    solution.contradictions[:] = unique


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
