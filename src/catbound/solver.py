"""Interval solver for category invariants over a linked catalog.

Every space carries one interval per invariant in the chain

    cup <= sigmacat <= cat <= Cat

(wcat is recorded when facts mention it but never propagated).  Each rule
yields candidate bounds; a candidate only raises a lower end or cuts an upper
end, so the rules are monotone maps on a finite lattice: applying them in any
order until nothing changes reaches the same fixpoint.  A seed may shuffle
the order; the result is identical by construction.

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

The first five read only the catalog and run once per solve; each bundle is
certified once.  Then a worklist settles each space after the spaces it
reads: a visit applies the products and refused bundles that bound the space
and closes its chain in closed form, and only a change of its cat or Cat
upper end queues the spaces that read it again.  Provenance is credited from
what the settle left, without replaying the rules: each settled end goes to
the first candidate, in canonical order, equal to it.  A space whose interval
ends cross (possible only if the declared inputs are themselves
inconsistent) is reported as a contradiction with a provenance entry per
side; remaining spaces are unaffected.
"""

from __future__ import annotations

from collections import deque, namedtuple

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


class Provenance(namedtuple("Provenance", "space invariant side value rule detail")):
    # side: lower | upper
    __slots__ = ()


class Contradiction(namedtuple("Contradiction", "space invariant lower upper")):
    # lower, upper: the Provenance of each crossing bound
    __slots__ = ()


class GaneaResult(namedtuple("GaneaResult", "space status rule")):
    # status: holds | unknown; rule: cup-equality | sigmacat-equality | None
    __slots__ = ()


class SpaceState(namedtuple("SpaceState", "intervals")):
    # intervals: invariant name -> Interval
    __slots__ = ()


class Solution(namedtuple("Solution", "states provenance contradictions")):
    # states: space -> SpaceState; provenance: space -> [Provenance]
    __slots__ = ()

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


# -- static rules --------------------------------------------------------------
# Each yields candidate bounds (space, invariant, side, value, detail) read
# from the catalog alone; `bundles` is `_certify`'s list.


def _rule_ring_cup(catalog, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            value, witness = cache.search(space.ring, (1,) * space.ring.ngens)
            yield name, "cup", "lower", value, witness
            if space.cohomology.complete:
                yield name, "cup", "upper", value, "complete presentation"


def _rule_ring_weight(catalog, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            weights = space_weights(space.ring, space.loopspace_even)
            value, witness = cache.search(space.ring, weights)
            yield name, "sigmacat", "lower", value, f"weighted {witness}"


def _rule_recorded_fact(catalog, cache, bundles):
    for fact in catalog.facts:
        if fact.qualifier in ("lower", "exact"):
            yield fact.space, fact.invariant, "lower", fact.value, fact.citation
        if fact.qualifier in ("upper", "exact"):
            yield fact.space, fact.invariant, "upper", fact.value, fact.citation


def _rule_dimension(catalog, cache, bundles):
    for name, space in catalog.spaces.items():
        if space.dim is not None:
            yield name, "Cat", "upper", space.dim, f"dim {space.dim}"


def _rule_cone_bundle(catalog, cache, bundles):
    for bundle, bound in bundles:
        if bound is not None:
            m = bundle.fiber_decomposition.length
            detail = f"bundle {bundle.name}: {m} + {bundle.base_dim}//{bundle.d}"
            yield bundle.total, "Cat", "upper", bound, detail


# (name, rule) in canonical order; each runs once per solve.
_RULES = (
    ("ring-cup", _rule_ring_cup),
    ("ring-weight", _rule_ring_weight),
    ("recorded-fact", _rule_recorded_fact),
    ("dimension", _rule_dimension),
    ("cone-bundle", _rule_cone_bundle),
)


# -- state-dependent rules -------------------------------------------------------
# Each bounds an upper end of one item's total space from the current state,
# yielding (invariant, value, args); `_DETAILS[rule].format(*args)` is the
# detail text, made only for a credited candidate.


def _rule_product(prod, intervals_of):
    left, right = intervals_of[prod.left], intervals_of[prod.right]
    for inv in ("cat", "Cat"):
        a, b = left[inv].upper, right[inv].upper
        if a is not None and b is not None:
            yield inv, product_bound(a, b), (prod.left, prod.right, a, b)


def _rule_fiber_base(bundle, intervals_of):
    # only where the stagewise bound refuses
    f = intervals_of[bundle.fiber]["cat"].upper
    b = intervals_of[bundle.base]["cat"].upper
    if f is not None and b is not None:
        yield "cat", general_bundle_bound(f, b), (bundle.name, f, b)


_DETAILS = {"product": "{} x {}: {} + {}", "fiber-base": "bundle {}: ({}+1)({}+1)-1"}


def _close_chain(chain: list[Interval]) -> None:
    """The chain rule's fixpoint on one space: lower ends take the running
    max up the chain, upper ends the running min down it."""
    for lo, hi in zip(chain, chain[1:]):
        hi.raise_lower(lo.lower)
    for i in (2, 1, 0):
        if chain[i + 1].upper is not None:
            chain[i].cut_upper(chain[i + 1].upper)


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
    intervals_of = {name: state.intervals for name, state in states.items()}

    rules = list(enumerate(_RULES))
    queue = list(catalog.spaces)
    if rule_seed is not None:
        import random  # only a seeded solve needs it

        rng = random.Random(rule_seed)
        rng.shuffle(rules)
        rng.shuffle(queue)
    bundles = _certify(catalog)

    # Static rules, once.  Each end keeps the credit (rank, rule, detail,
    # value) of the candidate that moved it last, or of the candidate of
    # least canonical rank among those equal to it: whatever the rule order.
    credit: dict[tuple[str, str, str], tuple] = {}
    rule_args = (catalog, _RingCache(max_search), bundles)
    for index, (rule_name, rule) in rules:
        for rank, (space, inv, side, value, detail) in enumerate(rule(*rule_args)):
            iv = intervals_of[space][inv]
            moved = iv.raise_lower(value) if side == "lower" else iv.cut_upper(value)
            key = (space, inv, side)
            held = credit.get(key)
            if moved or (held is not None and value == held[3] and (index, rank) < held[0]):
                credit[key] = ((index, rank), rule_name, detail, value)

    # inflow[total]: the products and refused bundles bounding it, in
    # canonical order; feeds[space]: the totals that read it.
    inflow = {name: [] for name in catalog.spaces}
    feeds = {name: [] for name in catalog.spaces}
    for prod in catalog.products:
        inflow[prod.total].append(("product", _rule_product, prod))
        feeds[prod.left].append(prod.total)
        feeds[prod.right].append(prod.total)
    for bundle, bound in bundles:
        if bound is None:
            inflow[bundle.total].append(("fiber-base", _rule_fiber_base, bundle))
            feeds[bundle.fiber].append(bundle.total)
            feeds[bundle.base].append(bundle.total)

    # Settle each space after the spaces it reads.  A visit writes only the
    # visited space, and only its cat and Cat upper ends are read elsewhere,
    # so a change there re-queues its readers and nothing else.
    queued = set(queue)
    queue = deque(queue)
    while queue:
        name = queue.popleft()
        queued.discard(name)
        intervals = intervals_of[name]
        before = (intervals["cat"].upper, intervals["Cat"].upper)
        for _, rule, item in inflow[name]:
            for inv, value, _ in rule(item, intervals_of):
                intervals[inv].cut_upper(value)
        _close_chain([intervals[inv] for inv in CHAIN])
        if (intervals["cat"].upper, intervals["Cat"].upper) != before:
            for total in feeds[name]:
                if total not in queued:
                    queued.add(total)
                    queue.append(total)

    solution = Solution(states, {}, [])
    _attach_provenance(solution, intervals_of, credit, inflow)
    return solution


# -- provenance --------------------------------------------------------------
# Justifications are read off the fixpoint rather than logged during
# iteration, so the report does not depend on the rule order: each settled
# end goes to the first candidate, in canonical rule order, equal to it.  The
# static rules' credit comes first, then the space's inflow re-read on the
# final state, then its chain neighbour.  The rules are monotone, so one
# always exists; a missing one raises KeyError.


# the chain neighbour whose end is a candidate for each (invariant, side)
_NEIGHBOUR = {(hi, "lower"): lo for lo, hi in zip(CHAIN, CHAIN[1:])}
_NEIGHBOUR.update({(lo, "upper"): hi for lo, hi in zip(CHAIN, CHAIN[1:])})


def _attach_provenance(solution: Solution, intervals_of, credit: dict, inflow: dict) -> None:
    def credited(name, intervals, inv, side, end) -> Provenance:
        held = credit.get((name, inv, side))
        if held is not None and held[3] == end:
            return Provenance(name, inv, side, end, held[1], held[2])
        if side == "upper":
            for rule_name, rule, item in inflow[name]:
                for got, value, args in rule(item, intervals_of):
                    if got == inv and value == end:
                        detail = _DETAILS[rule_name].format(*args)
                        return Provenance(name, inv, side, end, rule_name, detail)
        other = _NEIGHBOUR.get((inv, side))
        if other is not None and getattr(intervals[other], side) == end:
            return Provenance(name, inv, side, end, "chain", f"{other} {side} end")
        raise KeyError((name, inv, side))

    for name in sorted(intervals_of):
        intervals = intervals_of[name]
        entries = []
        contradiction = None
        # chain invariants first, then wcat: the order the intervals are made
        for inv, iv in intervals.items():
            lower_p = upper_p = None
            if iv.lower > 0:
                lower_p = credited(name, intervals, inv, "lower", iv.lower)
                entries.append(lower_p)
            if iv.upper is not None:
                upper_p = credited(name, intervals, inv, "upper", iv.upper)
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
