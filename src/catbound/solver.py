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

from typing import NamedTuple

from .catalog import Catalog
from .cones import check_compatibility, general_bundle_bound, product_bound
from .cup import space_weights, weighted_wgt_lower

CHAIN = ("cup", "sigmacat", "cat", "Cat")

class Interval:
    __slots__ = ("lower", "upper")  # mutable: every fixpoint step moves an end

    def __init__(self, lower: int = 0, upper: int | None = None):
        self.lower = lower
        self.upper = upper  # None is "no upper bound known"

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lower, self.upper) == (other.lower, other.upper)

    def __repr__(self):
        return f"Interval(lower={self.lower!r}, upper={self.upper!r})"

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


class Provenance(NamedTuple):
    space: str
    invariant: str
    side: str  # lower | upper
    value: int
    rule: str
    detail: str


class Contradiction(NamedTuple):
    space: str
    invariant: str
    lower: Provenance
    upper: Provenance


class GaneaResult(NamedTuple):
    space: str
    status: str  # holds | unknown
    rule: str | None  # cup-equality | sigmacat-equality


class SpaceState(NamedTuple):
    intervals: dict[str, Interval]


class Solution(NamedTuple):
    states: dict[str, SpaceState]
    provenance: dict[str, list[Provenance]]
    contradictions: list[Contradiction]

    def interval(self, space: str, invariant: str) -> Interval:
        return self.states[space].intervals[invariant]


class _RingCache:
    """Searches are pure in the ring and the weights, so each (ring, weights)
    pair is searched once per solve, its witness text formatted once.  The
    cup search is the one with unit weights."""

    def __init__(self, max_search: int | None):
        self.max_nodes = max_search
        self.results: dict = {}

    def search(self, ring, weights: tuple[int, ...]) -> tuple[int, str]:
        """(value, "witness ...") of the search with these weights."""
        key = (ring, weights)
        if key not in self.results:
            result = weighted_wgt_lower(ring, weights, max_nodes=self.max_nodes)
            self.results[key] = (result.value, f"witness {result.witness_str(ring)}")
        return self.results[key]


def _certify(catalog: Catalog) -> list:
    """Every bundle, in name order, with its verdict's stagewise bound, None
    where the certificate refuses it: one certification per bundle per solve."""
    bundles = sorted(catalog.bundles.values(), key=lambda b: b.name)
    return [(bundle, check_compatibility(bundle).bound) for bundle in bundles]


# -- rules -------------------------------------------------------------------
# Each rule yields candidate bounds (space, invariant, side, value, detail)
# from the current state; `bundles` is `_certify`'s list.


def _rule_ring_cup(catalog, states, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            value, witness = cache.search(space.ring, (1,) * space.ring.ngens)
            yield name, "cup", "lower", value, witness
            if space.cohomology.complete:
                yield name, "cup", "upper", value, "complete presentation"


def _rule_ring_weight(catalog, states, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            weights = space_weights(space.ring, space.loopspace_even)
            value, witness = cache.search(space.ring, weights)
            yield name, "sigmacat", "lower", value, f"weighted {witness}"


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


# (name, static, rule) in canonical order.  A static rule reads only the
# catalog, so its candidates are the same on every pass, and a satisfied
# candidate stays satisfied: the fixpoint applies it in its first pass only.
_RULES = (
    ("ring-cup", True, _rule_ring_cup),
    ("ring-weight", True, _rule_ring_weight),
    ("recorded-fact", True, _rule_recorded_fact),
    ("dimension", True, _rule_dimension),
    ("cone-bundle", True, _rule_cone_bundle),
    ("product", False, _rule_product),
    ("fiber-base", False, _rule_fiber_base),
    ("chain", False, _rule_chain),
)


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

    order = list(_RULES)
    if rule_seed is not None:
        import random  # only a seeded solve needs it

        random.Random(rule_seed).shuffle(order)
    rule_args = (catalog, states, _RingCache(max_search), _certify(catalog))
    intervals_of = {name: state.intervals for name, state in states.items()}

    changed = True
    while changed:
        changed = False
        for _, _, rule in order:
            for space, inv, side, value, _ in rule(*rule_args):
                iv = intervals_of[space][inv]
                if side == "lower":
                    changed |= iv.raise_lower(value)
                else:
                    changed |= iv.cut_upper(value)
        order = [row for row in order if not row[1]]

    solution = Solution(states, {}, [])
    _attach_provenance(solution, rule_args)
    return solution


# -- provenance --------------------------------------------------------------
# Justifications are read off the fixpoint rather than logged during
# iteration, so the report does not depend on the rule order: each settled
# end goes to the first candidate, in canonical rule order, equal to it.
# The rules are monotone, so one always exists; a missing one raises KeyError.


def _attach_provenance(solution: Solution, rule_args: tuple) -> None:
    states = solution.states
    found: dict[tuple[str, str, str], Provenance] = {}
    for rule_name, _, rule in _RULES:
        for space, inv, side, value, detail in rule(*rule_args):
            key = (space, inv, side)
            if key not in found:
                iv = states[space].intervals[inv]
                if value == (iv.lower if side == "lower" else iv.upper):
                    found[key] = Provenance(space, inv, side, value, rule_name, detail)

    for name in sorted(states):
        entries = []
        contradiction = None
        # chain invariants first, then wcat: the order the intervals are made
        for inv, iv in states[name].intervals.items():
            lower_p = upper_p = None
            if iv.lower > 0:
                lower_p = found[name, inv, "lower"]
                entries.append(lower_p)
            if iv.upper is not None:
                upper_p = found[name, inv, "upper"]
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
    intervals = solution.states[space].intervals
    cat = intervals["cat"]
    if cat.determined and all(c.space != space for c in solution.contradictions):
        for inv, rule in (("cup", "cup-equality"), ("sigmacat", "sigmacat-equality")):
            if intervals[inv].determined and intervals[inv].lower == cat.lower:
                return GaneaResult(space, "holds", rule)
    return GaneaResult(space, "unknown", None)
