"""The original solver, kept as a test-only reference.

`reference_propagate` is the full-pass fixpoint: every state-dependent rule
(product, fiber-base, chain) runs over every space on every pass until
nothing changes, the static rules in the first pass only, and provenance is
one more pass over all eight rules, in canonical order, on the final state:
each settled end is credited to the first candidate equal to it.  Its
contract is the one `catbound.solver.propagate` must keep: the same
intervals, provenance and contradictions, under any rule seed.
"""

from __future__ import annotations

from catbound.catalog import Catalog
from catbound.cones import check_compatibility, general_bundle_bound, product_bound
from catbound.cup import space_weights, weighted_wgt_lower
from catbound.solver import (
    CHAIN,
    Contradiction,
    Interval,
    Provenance,
    Provenances,
    Solution,
    SpaceState,
)


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


def reference_propagate(
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
                    if value > iv.lower:
                        iv.lower = value
                        changed = True
                else:
                    changed |= iv.cut_upper(value)
        order = [row for row in order if not row[1]]

    return _attach_provenance(states, rule_args)


# -- provenance --------------------------------------------------------------
# Justifications are read off the fixpoint rather than logged during
# iteration, so the report does not depend on the rule order: each settled
# end goes to the first candidate, in canonical rule order, equal to it.
# The rules are monotone, so one always exists; a missing one raises KeyError.


def _attach_provenance(states: dict, rule_args: tuple) -> Solution:
    found: dict[tuple[str, str, str], Provenance] = {}
    for rule_name, _, rule in _RULES:
        for space, inv, side, value, detail in rule(*rule_args):
            key = (space, inv, side)
            if key not in found:
                iv = states[space].intervals[inv]
                if value == (iv.lower if side == "lower" else iv.upper):
                    found[key] = Provenance(space, inv, side, value, rule_name, detail)

    provenance = {}
    contradictions = []
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
            crossed = iv.upper is not None and iv.upper < iv.lower
            if crossed and contradiction is None:
                # bounds crossed: the declared inputs for this space are
                # inconsistent; report both sides of the first crossing (one
                # report per space is enough) and leave the space out of any
                # further reading
                if lower_p is None:
                    lower_p = Provenance(name, inv, "lower", iv.lower, "trivial", "")
                contradiction = Contradiction(name, inv, lower_p, upper_p)
        provenance[name] = entries
        if contradiction is not None:
            contradictions.append(contradiction)
    # the solver's read-only mapping, holding each record's fields as a credit
    credits = {name: [(*p[1:], None) for p in entries] for name, entries in provenance.items()}
    contradicted = {c.space for c in contradictions}
    return Solution(states, Provenances(credits, contradicted), contradictions)
