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
upper end queues the spaces that read it again.  Provenance is credited in
the settle: the end of each visit credits each of the space's ends to the
first candidate, in canonical order, equal to it, over the previous visit's
credit, so the last visit's stands.  `Solution.provenance` is a read-only
mapping that builds a space's `Provenance` records when they are first read.
A space whose interval ends cross (possible only if the declared inputs are
themselves inconsistent) is reported as a contradiction with a provenance
entry per side; remaining spaces are unaffected.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable, Mapping

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
    # states: space -> SpaceState; provenance: Provenances
    __slots__ = ()

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
            return ((space, _NEIGHBOUR[invariant, side][0], side),)
        if rule == "product":
            return ((args[0].left, invariant, "upper"), (args[0].right, invariant, "upper"))
        if rule == "fiber-base":
            return ((args[0].fiber, "cat", "upper"), (args[0].base, "cat", "upper"))
        return ()


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

    # Static rules, once.  Each end keeps the rank and credit of the
    # candidate that moved it last, or of the candidate of least canonical
    # rank among those equal to it: whatever the rule order.
    static: dict[tuple[str, str, str], tuple] = {}
    rule_args = (catalog, _RingCache(max_search), bundles)
    for index, (rule_name, rule) in rules:
        for rank, (space, inv, side, value, detail) in enumerate(rule(*rule_args)):
            iv = intervals_of[space][inv]
            moved = iv.raise_lower(value) if side == "lower" else iv.cut_upper(value)
            key = (space, inv, side)
            held = static.get(key)
            if moved or (held is not None and value == held[1][2] and (index, rank) < held[0]):
                static[key] = ((index, rank), (inv, side, value, rule_name, detail, None))

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
    # so a change there re-queues its readers and nothing else.  The last
    # visit sees its inflow's final ends, so the credits it writes, over
    # the previous visit's, are final.
    credits: dict[str, list] = {}
    crossings: dict[str, str | None] = {}
    queued = set(queue)
    queue = deque(queue)
    while queue:
        name = queue.popleft()
        queued.discard(name)
        intervals = intervals_of[name]
        before = (intervals["cat"].upper, intervals["Cat"].upper)
        candidates = []
        for rule_name, rule, item in inflow[name]:
            for inv, value, args in rule(item, intervals_of):
                intervals[inv].cut_upper(value)
                candidates.append((inv, value, rule_name, args))
        _close_chain([intervals[inv] for inv in CHAIN])
        credits[name], crossings[name] = _credit(name, intervals, static, candidates)
        if (intervals["cat"].upper, intervals["Cat"].upper) != before:
            for total in feeds[name]:
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
# Justifications are read off the settled state rather than logged as ends
# move, so the report does not depend on the rule order: each settled end
# goes to the first candidate, in canonical rule order, equal to it.  The
# static rules' credit comes first, then the candidates of the space's
# inflow on its last visit, then its chain neighbour.  The rules are
# monotone, so one always exists; a missing one raises KeyError.

# the chain neighbour whose end is a candidate for each (invariant, side),
# with the detail of its credit
_NEIGHBOUR = {(hi, "lower"): (lo, f"{lo} lower end") for lo, hi in zip(CHAIN, CHAIN[1:])}
_NEIGHBOUR.update({(lo, "upper"): (hi, f"{hi} upper end") for lo, hi in zip(CHAIN, CHAIN[1:])})


def _credit(name, intervals, static, candidates) -> tuple[list, str | None]:
    """The credit of each positive lower end and finite upper end of one
    space, chain invariants first, then wcat (the order the intervals are
    made), and the first invariant whose ends cross, None if none do."""
    ends = []
    crossing = None
    for inv, iv in intervals.items():
        lower, upper = iv.lower, iv.upper
        if lower > 0:
            held = static.get((name, inv, "lower"))
            if held is not None and held[1][2] == lower:
                ends.append(held[1])
            else:
                other, detail = _NEIGHBOUR.get((inv, "lower"), (None, None))
                if other is None or intervals[other].lower != lower:
                    raise KeyError((name, inv, "lower"))
                ends.append((inv, "lower", lower, "chain", detail, None))
        if upper is not None:
            held = static.get((name, inv, "upper"))
            if held is not None and held[1][2] == upper:
                ends.append(held[1])
            else:
                for got, value, rule, args in candidates:
                    if got == inv and value == upper:
                        detail = _DETAILS[rule].format(*args)
                        ends.append((inv, "upper", upper, rule, detail, args))
                        break
                else:
                    other, detail = _NEIGHBOUR.get((inv, "upper"), (None, None))
                    if other is None or intervals[other].upper != upper:
                        raise KeyError((name, inv, "upper"))
                    ends.append((inv, "upper", upper, "chain", detail, None))
            if crossing is None and upper < lower:
                crossing = inv
    return ends, crossing


def ganea_check(solution: Solution, space: str) -> GaneaResult:
    """Does cat(X x S^n) = cat(X) + 1 follow from the computed intervals?

    Two sufficient conditions are tried: cat equal to the cup bound, and cat
    equal to the stabilized bound sigmacat.  Anything else is reported as
    unknown; the check never claims a failure.
    """
    intervals = solution.states[space].intervals
    cat = intervals["cat"]
    if cat.determined and space not in solution.provenance.contradicted:
        for inv, rule in (("cup", "cup-equality"), ("sigmacat", "sigmacat-equality")):
            if intervals[inv].determined and intervals[inv].lower == cat.lower:
                return GaneaResult(space, "holds", rule)
    return GaneaResult(space, "unknown", None)
