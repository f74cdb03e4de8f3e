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

The first five read only the catalog and run once per solve, with one search
per (ring, weights) and one certification per bundle; each end keeps beside
it, on its Interval, the one credit tuple of the static candidate that holds
it.  Then a worklist visits the spaces in declaration order, or a seed's
shuffle of it, not after the spaces they read (ROADMAP item 20): a visit
applies the products and refused bundles that bound the space, closes its
chain (a tuple made with the space) in closed form, and credits each end to
the first candidate, in canonical order, equal to it, over the previous
visit's credit; only a change of its cat or Cat upper end queues the spaces
that read it again.  A visit allocates per space, plus one tuple per end
credited by product, fiber-base or chain.  `Solution.provenance` is a
read-only mapping that builds a space's `Provenance` records when first read.
A space whose interval ends cross (possible only if the declared inputs are
themselves inconsistent) is reported as a contradiction with a provenance
entry per side; remaining spaces are unaffected.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping

from .catalog import Catalog
from .cones import check_compatibility, general_bundle_bound, product_bound
from .cup import space_weights, weighted_wgt_lower
from .record import Record, _tuple_new

CHAIN = ("cup", "sigmacat", "cat", "Cat")

class Interval:
    # mutable: every fixpoint step moves an end; propagate keeps beside each
    # end the credit of the static rule that reached it, if any
    __slots__ = ("lower", "upper", "lower_static", "upper_static")

    def __init__(self, lower: int = 0, upper: int | None = None):
        self.lower = lower
        self.upper = upper  # None is "no upper bound known"
        self.lower_static = self.upper_static = None

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lower, self.upper) == (other.lower, other.upper)

    def __repr__(self):
        return f"Interval(lower={self.lower!r}, upper={self.upper!r})"

    @property
    def determined(self) -> bool:
        return self.upper is not None and self.upper == self.lower

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


class Provenance(Record):
    __slots__ = ()

    # side: lower | upper
    def __new__(cls, space, invariant, side, value, rule, detail):
        return _tuple_new(cls, (space, invariant, side, value, rule, detail))


class Contradiction(Record):
    __slots__ = ()

    # lower, upper: the Provenance of each crossing bound
    def __new__(cls, space, invariant, lower, upper):
        return _tuple_new(cls, (space, invariant, lower, upper))


class GaneaResult(Record):
    __slots__ = ()

    # status: holds | unknown; rule: cup-equality | sigmacat-equality | None
    def __new__(cls, space, status, rule):
        return _tuple_new(cls, (space, status, rule))


class SpaceState(Record):
    __slots__ = ()

    # intervals: invariant name -> Interval
    def __new__(cls, intervals):
        return _tuple_new(cls, (intervals,))


class Solution(Record):
    __slots__ = ()

    # states: space -> SpaceState; provenance: Provenances
    def __new__(cls, states, provenance, contradictions):
        return _tuple_new(cls, (states, provenance, contradictions))

    def interval(self, space: str, invariant: str) -> Interval:
        return self.states[space].intervals[invariant]


class Provenances(Mapping):
    """Read-only map space -> [Provenance], one record per positive lower end
    and finite upper end, chain invariants first, then wcat.  The solve
    leaves each end's credit as a plain tuple (invariant, side, value, rule,
    detail, args), args being a product's or fiber-base bound's (item, ...)
    and None for the other rules; a space's records are built when first
    read.  `contradicted` holds the spaces whose ends cross."""

    __slots__ = ("_credits", "_records", "contradicted")

    def __init__(self, credits: dict, contradicted: Iterable[str]):
        self._credits, self._records = credits, {}
        self.contradicted = frozenset(contradicted)

    def __getitem__(self, space: str) -> list:
        if space not in self._records:
            self._records[space] = [Provenance(space, *end[:5]) for end in self._credits[space]]
        return self._records[space]

    def __iter__(self):
        return iter(sorted(self._credits))

    def __len__(self) -> int:
        return len(self._credits)

    def credits(self, space: str) -> list:
        """The space's credit tuples, in record order, building no record."""
        return self._credits[space]

    def inputs(self, space: str, invariant: str, side: str) -> tuple:
        """The ends (space, invariant, side) this end's credit read: the
        factors' uppers for product, the fiber's and base's cat uppers for
        fiber-base, the neighbouring end for chain, none for a static rule.
        A credit may read itself, through P = P * Q or mutually fibred
        bundles: such a cycle is listed, and nothing here follows it."""
        rule, _, args = {end[:2]: end[3:] for end in self._credits[space]}[invariant, side]
        if rule == "chain":
            return ((space, _NEIGHBOUR[side][invariant][0], side),)
        if rule == "product":
            return ((args[0].left, invariant, "upper"), (args[0].right, invariant, "upper"))
        if rule == "fiber-base":
            return ((args[0].fiber, "cat", "upper"), (args[0].base, "cat", "upper"))
        return ()


def _searcher(max_search: int | None):
    """search(ring, weights) -> (value, "witness ...").  Searches are pure in
    the ring and the weights, so each pair is searched once per solve, its
    witness text formatted once.  The cup search is the one with unit weights."""
    results = {}

    def search(ring, weights: tuple[int, ...]) -> tuple[int, str]:
        found = results.get(key := (ring, weights))
        if found is None:
            result = weighted_wgt_lower(ring, weights, max_nodes=max_search)
            found = results[key] = (result.value, f"witness {result.witness_str(ring)}")
        return found

    return search


# -- static rules --------------------------------------------------------------
# Each yields candidate bounds (space, invariant, side, value, detail) read
# from the catalog alone; `bundles` lists (bundle, stagewise bound or None).


def _rule_ring_cup(catalog, search, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            value, witness = search(space.ring, (1,) * len(space.ring.generators))
            yield name, "cup", "lower", value, witness
            if space.cohomology.complete:
                yield name, "cup", "upper", value, "complete presentation"


def _rule_ring_weight(catalog, search, bundles):
    for name, space in catalog.spaces.items():
        if space.ring is not None:
            weights = space_weights(space.ring, space.loopspace_even)
            value, witness = search(space.ring, weights)
            yield name, "sigmacat", "lower", value, f"weighted {witness}"


def _rule_recorded_fact(catalog, search, bundles):
    for fact in catalog.facts:
        if fact.qualifier in ("lower", "exact"):
            yield fact.space, fact.invariant, "lower", fact.value, fact.citation
        if fact.qualifier in ("upper", "exact"):
            yield fact.space, fact.invariant, "upper", fact.value, fact.citation


def _rule_dimension(catalog, search, bundles):
    for name, space in catalog.spaces.items():
        if space.dim is not None:
            yield name, "Cat", "upper", space.dim, f"dim {space.dim}"


def _rule_cone_bundle(catalog, search, bundles):
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
_RANK = {name: index for index, (name, _) in enumerate(_RULES)}


# -- state-dependent rules -------------------------------------------------------
# Each bounds an upper end of one item's total space from the current state,
# yielding (invariant, value, args) with args[0] the item; the detail text,
# `_DETAILS[rule].format(*args)`, is made only for a credited candidate.


def _rule_product(prod, intervals_of):
    left, right = intervals_of[prod.left], intervals_of[prod.right]
    for inv in ("cat", "Cat"):
        a, b = left[inv].upper, right[inv].upper
        if a is not None and b is not None:
            yield inv, product_bound(a, b), (prod, a, b)


def _rule_fiber_base(bundle, intervals_of):
    # only where the stagewise bound refuses
    f = intervals_of[bundle.fiber]["cat"].upper
    b = intervals_of[bundle.base]["cat"].upper
    if f is not None and b is not None:
        yield "cat", general_bundle_bound(f, b), (bundle, f, b)


_DETAILS = {
    "product": "{0.left} x {0.right}: {1} + {2}",
    "fiber-base": "bundle {0.name}: ({1}+1)({2}+1)-1",
}


def _close_chain(chain: tuple[Interval, ...]) -> None:
    """The chain rule's fixpoint on one space: lower ends take the running
    max up the chain, upper ends the running min down it."""
    most, least = 0, None
    for lo, hi in zip(chain, reversed(chain)):
        if lo.lower < most:
            lo.lower = most
        most = lo.lower
        if hi.upper is None or (least is not None and least < hi.upper):
            hi.upper = least
        least = hi.upper


def propagate(
    catalog: Catalog,
    rule_seed: int | None = None,
    max_search: int | None = None,
) -> Solution:
    with_wcat = {f.space for f in catalog.facts if f.invariant == "wcat"}
    states, intervals_of, chains = {}, {}, {}
    for name in catalog.spaces:
        chains[name] = chain = (Interval(), Interval(), Interval(), Interval())
        intervals_of[name] = intervals = dict(zip(CHAIN, chain))
        if name in with_wcat:
            intervals["wcat"] = Interval()
        states[name] = SpaceState(intervals)

    rules = list(enumerate(_RULES))
    queue = list(catalog.spaces)
    if rule_seed is not None:
        import random  # only a seeded solve needs it

        rng = random.Random(rule_seed)
        rng.shuffle(rules)
        rng.shuffle(queue)
    # every bundle, in name order, with its verdict's stagewise bound, None
    # where the certificate refuses it: one certification per bundle per solve
    bundles = sorted(catalog.bundles.values(), key=lambda b: b.name)
    bundles = [(bundle, check_compatibility(bundle).bound) for bundle in bundles]

    # Static rules, once.  Each end keeps, beside it, the credit of the
    # candidate that moved it last, or of the candidate of least canonical
    # rank among those equal to it: whatever the rule order.  A rule yields
    # its candidates in canonical order, so only another rule's can tie.
    rule_args = (catalog, _searcher(max_search), bundles)
    for index, (rule_name, rule) in rules:
        for space, inv, side, value, detail in rule(*rule_args):
            iv = intervals_of[space][inv]
            if side == "lower":
                held = iv.lower_static
                if value > iv.lower or (held and held[2] == value and index < _RANK[held[3]]):
                    iv.lower, iv.lower_static = value, (inv, side, value, rule_name, detail, None)
            else:
                held = iv.upper_static
                if iv.upper is None or value < iv.upper or (
                    held and held[2] == value and index < _RANK[held[3]]
                ):
                    iv.upper, iv.upper_static = value, (inv, side, value, rule_name, detail, None)

    # inflow[total]: the products and refused bundles bounding it, in
    # canonical order; feeds[space]: the totals that read it.
    inflow, feeds = {}, {}
    reads = [("product", _rule_product, p, p.left, p.right) for p in catalog.products]
    reads += [("fiber-base", _rule_fiber_base, b, b.fiber, b.base)
              for b, bound in bundles if bound is None]
    for rule_name, rule, item, one, other in reads:
        inflow.setdefault(item.total, []).append((rule_name, rule, item))
        feeds.setdefault(one, []).append(item.total)
        feeds.setdefault(other, []).append(item.total)

    # Visit in queue order, which need not put a space after those it reads
    # (ROADMAP item 20).  A visit writes only the visited space, and only its
    # cat and Cat upper ends are read elsewhere, so a change there re-queues
    # its readers and nothing else.  The last visit sees its inflow's final
    # ends, so the credits it writes, over the previous visit's, are final.
    credits, crossings = {}, {}  # space -> its credits, its first crossing or None
    queued, queue = set(queue), deque(queue)
    while queue:
        name = queue.popleft()
        queued.discard(name)
        intervals, chain = intervals_of[name], chains[name]
        cat, Cat = chain[2], chain[3]
        before = (cat.upper, Cat.upper)
        candidates = []
        for rule_name, rule, item in inflow.get(name, ()):
            for inv, value, args in rule(item, intervals_of):
                intervals[inv].cut_upper(value)
                candidates.append((inv, value, rule_name, args))
        _close_chain(chain)
        credits[name], crossings[name] = _credit(name, intervals, candidates)
        if (cat.upper, Cat.upper) != before:
            for total in feeds.get(name, ()):
                if total not in queued:
                    queued.add(total)
                    queue.append(total)

    # A space whose ends cross has inconsistent declared inputs: report both
    # sides of its first crossing (one report per space is enough) and leave
    # the space out of any further reading.
    contradicted = sorted(name for name, inv in crossings.items() if inv is not None)
    provenance = Provenances(credits, contradicted)
    contradictions = []
    for name in contradicted:
        inv = crossings[name]
        lower = intervals_of[name][inv].lower
        sides = {"lower": Provenance(name, inv, "lower", lower, "trivial", "")}
        sides.update((p.side, p) for p in provenance[name] if p.invariant == inv)
        contradictions.append(Contradiction(name, inv, sides["lower"], sides["upper"]))
    return Solution(states, provenance, contradictions)


# -- provenance --------------------------------------------------------------
# Each settled end goes to the first candidate, in canonical rule order, equal
# to it, whatever the rule order: its static credit, then the candidates of
# the space's inflow on its last visit, then its chain neighbour.  The rules
# are monotone, so one always exists; a missing one raises KeyError.

# the chain neighbour whose end is a candidate for each side and invariant,
# with the detail of its credit
_NEIGHBOUR = {
    "lower": {hi: (lo, f"{lo} lower end") for lo, hi in zip(CHAIN, CHAIN[1:])},
    "upper": {lo: (hi, f"{hi} upper end") for lo, hi in zip(CHAIN, CHAIN[1:])},
}


def _credit(name, intervals, candidates) -> tuple[list, str | None]:
    """The credit of each positive lower end and finite upper end of one
    space, chain invariants first, then wcat (the order the intervals are
    made), and the first invariant whose ends cross, None if none do."""
    ends, crossing = [], None
    for inv, iv in intervals.items():
        lower, upper = iv.lower, iv.upper
        if lower > 0:
            held = iv.lower_static
            if held is None or held[2] != lower:
                other, detail = _NEIGHBOUR["lower"].get(inv, (None, None))
                if other is None or intervals[other].lower != lower:
                    raise KeyError((name, inv, "lower"))
                held = (inv, "lower", lower, "chain", detail, None)
            ends.append(held)
        if upper is not None:
            held = iv.upper_static
            if held is None or held[2] != upper:
                for got, value, rule, args in candidates:
                    if got == inv and value == upper:
                        held = (inv, "upper", upper, rule, _DETAILS[rule].format(*args), args)
                        break
                else:
                    other, detail = _NEIGHBOUR["upper"].get(inv, (None, None))
                    if other is None or intervals[other].upper != upper:
                        raise KeyError((name, inv, "upper"))
                    held = (inv, "upper", upper, "chain", detail, None)
            ends.append(held)
            if crossing is None and upper < lower:
                crossing = inv
    return ends, crossing


def ganea_check(solution: Solution, space: str) -> GaneaResult:
    """Does cat(X x S^n) = cat(X) + 1 follow from the computed intervals?"""
    contradicted = space in solution.provenance.contradicted
    return GaneaResult(space, *ganea_verdict(solution.states[space].intervals, contradicted))


def ganea_verdict(intervals: dict, contradicted: bool) -> tuple[str, str | None]:
    """ganea_check's (status, rule) on a space's intervals: cat equal to the
    cup bound, or to the stabilized bound sigmacat, suffices.  Anything else,
    and any contradicted space, is unknown; the check never claims a failure."""
    cat = intervals["cat"]
    if cat.determined and not contradicted:
        for inv, rule in (("cup", "cup-equality"), ("sigmacat", "sigmacat-equality")):
            if intervals[inv].determined and intervals[inv].lower == cat.lower:
                return "holds", rule
    return "unknown", None
