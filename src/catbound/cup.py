"""Cup-length and weighted category-weight lower bounds by branch-and-bound
search.

One search ranges over generator exponent vectors e with e_i strictly below
the nilpotency order of the i-th generator, keeps only vectors whose monomial
has nonzero normal form, and maximizes sum(w_i * e_i).  Weights are a plain
tuple of ints in the ring's generator order.  With unit weights the maximum
is the cup-length of the presentation; with the weights space_weights gives a
space, it is a lower bound for the category weight of the space (weights
certify how deep in the Ganea-style filtration each factor sits, and weights
are superadditive under products).  Nothing here claims exactness beyond the
lower bound.

Each tensor factor of the ring (RingPresentation.factors) is searched on its
own.  A monomial is nonzero exactly when its part in every factor is, so the
feasible set is the product of the factors' feasible sets and the objective
is a sum: the value is the sum of the factor maxima.  The lexicographically
smallest maximiser of a product set is the product of each factor's smallest
maximiser, so the witness places each factor's witness at its generators.
One node budget covers the whole ring.

Within a factor, a rule x_i^t = c * x_j (one target, to the first power)
collapses a generator, since x_i^a x_j^b is a unit times
x_i^(a - t) x_j^(b + 1).  With w_j < t * w_i strictly, trading x_j back for
x_i^t gains value, so no maximiser uses x_j: e_j = 0.  Otherwise trading
x_i^t for x_j loses none and gives a lexicographically smaller vector, so the
smallest maximiser has e_i < t; that settles the loopspace-even tie
x1^2 = x2 with x2 weighted 2.  With unit weights a doubling chain collapses
to its first generator.

The search is a depth-first walk that tries each generator's exponents in
descending order and cuts a branch once its value plus the admissible suffix
bound sum_{j>i} w_j * top_j falls strictly below the best value found so far,
top_j being order_j - 1, or its cap for a collapsed generator.  The bound
never underestimates a completion, so no maximiser is cut.  Leaves arrive in
descending lexicographic order and ties replace the current best, so each
factor's witness is its lexicographically smallest maximiser.

Each product is tested for zero on its exponent vector alone.  That is exact:
over the field Z/p its coefficient is a product of signs and substitution
coefficients, all nonzero mod p, so a monomial vanishes exactly when a
truncation fires while its exponents are rewritten.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    Monomial,
    RingPresentation,
    _truncates,
    multiply_monomials,  # unused here; perfbench/tracer.py wraps this binding
    normal_form,
)

DEFAULT_MAX_NODES = 2_000_000
_ORACLE_MAX_GENS = 3


class SearchBudgetExceeded(RuntimeError):
    """The exponent-vector search outgrew its node budget."""


def _over_budget(ring: RingPresentation, max_nodes: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(
        f"cup search exceeded {max_nodes} nodes on ring {ring.name!r}; "
        "raise the budget to continue"
    )


def space_weights(ring: RingPresentation, loopspace_even: bool) -> tuple[int, ...]:
    """The declared weights, with every even-degree generator raised to >= 2
    when the space's based loops have even cohomology (the first
    projective-plane stage is then a suspension, so even classes carry
    weight at least two)."""
    return tuple(
        max(g.weight, 2) if loopspace_even and g.degree % 2 == 0 else g.weight
        for g in ring.generators
    )


class CupResult(NamedTuple):
    """Outcome of a search: the maximum and one witness vector, the
    lexicographically smallest exponent vector attaining the maximum."""

    value: int
    witness: tuple[int, ...]

    def witness_str(self, ring: RingPresentation) -> str:
        parts = []
        for g, e in zip(ring.generators, self.witness):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return " ".join(parts) if parts else "1"


# Each tensor factor is searched on its own; nodes counts products over the
# whole ring, so max_nodes (None stands for DEFAULT_MAX_NODES) bounds the total.
# Within a factor, level i tries e_i from its top down to 0, each as one product
# mono * x_i^e of local exponent vectors; mono is in normal form, so _truncates
# starts at i.  A zero product is skipped, not a stop, since a smaller power may
# survive; a bound strictly below the best is a stop.  Each product with e > 0
# is one node.  The walk is a loop over explicit per-level state, not a
# recursion, so a factor with thousands of generators does not exhaust the
# stack.
def _search(
    ring: RingPresentation,
    weights: tuple[int, ...],
    max_nodes: int | None,
) -> CupResult:
    if max_nodes is None:
        max_nodes = DEFAULT_MAX_NODES
    orders = ring.nilpotency_orders()
    total = 0
    witness = [0] * ring.ngens
    nodes = 0
    for factor in ring.factors:
        if len(factor.gens) == 1:
            # A lone generator carries no substitution, so its top power
            # survives: the walk below would take one node to find it, but
            # its setup costs several times more, and most factors are
            # lone generators.
            g = factor.gens[0]
            nodes += 1
            if nodes > max_nodes:
                raise _over_budget(ring, max_nodes)
            total += weights[g] * (orders[g] - 1)
            witness[g] = orders[g] - 1
            continue
        subs, caps = factor.subs, factor.caps
        n = len(subs)
        w = [weights[g] for g in factor.gens]
        tops = [orders[g] - 1 for g in factor.gens]
        for i, sub in enumerate(subs):
            # x_i^t = c * x_j: with w_j < t * w_i no maximiser uses x_j,
            # otherwise the smallest maximiser has e_i < t.
            if sub is not None and len(sub[1]) == 1:
                (j, a), = sub[1]
                if a == 1:
                    if w[j] < sub[0] * w[i]:
                        tops[j] = 0
                    else:  # min: an earlier rule may have fixed e_i = 0
                        tops[i] = min(tops[i], sub[0] - 1)
        # suffix[i]: the most that generators i, i+1, ... can still add.
        suffix = [0] * (n + 1)
        for i in reversed(range(n)):
            suffix[i] = suffix[i + 1] + w[i] * tops[i]
        best_val = 0
        best_wit = [0] * n
        evec = [0] * n
        # Level i's state: the exponent it tries next, and the product and
        # value of the exponents chosen above it.  Only level 0's entries are
        # read before a descent sets them.
        next_e = tops.copy()
        monos = [[0] * n] * n
        vals = [0] * n
        i = 0
        while i >= 0:
            e = next_e[i]
            val = vals[i]
            if e < 0 or val + e * w[i] + suffix[i + 1] < best_val:
                i -= 1  # smaller exponents only lower the bound further
                continue
            next_e[i] = e - 1
            cur = monos[i]
            if e > 0:
                nodes += 1
                if nodes > max_nodes:
                    raise _over_budget(ring, max_nodes)
                cur = cur.copy()
                cur[i] += e
                if _truncates(cur, subs, caps, i):
                    continue
            evec[i] = e
            val += e * w[i]
            if i == n - 1:
                if val >= best_val:  # ties: later leaves are lexicographically smaller
                    best_val = val
                    best_wit = evec.copy()
            else:
                i += 1
                next_e[i], monos[i], vals[i] = tops[i], cur, val
        total += best_val
        for g, e in zip(factor.gens, best_wit):
            witness[g] = e
    return CupResult(total, tuple(witness))


def cup_length(ring: RingPresentation, max_nodes: int | None = None) -> CupResult:
    """Longest nonzero product of generators: max sum(e_i) over exponent
    vectors whose monomial survives normalization.  The empty product counts
    as zero, so a presentation with no nonzero positive-degree monomial has
    cup-length 0."""
    return _search(ring, (1,) * ring.ngens, max_nodes)


def weighted_wgt_lower(
    ring: RingPresentation,
    weights: tuple[int, ...] | None = None,
    max_nodes: int | None = None,
) -> CupResult:
    """Max sum(w_i * e_i) over nonzero exponent vectors: a lower bound for
    the category weight of any space with this cohomology.  `weights` aligns
    with the ring's generators; None stands for the declared weights.  With
    unit weights this is cup_length."""
    if weights is None:
        weights = tuple(g.weight for g in ring.generators)
    if len(weights) != ring.ngens:
        raise AlgebraError("weight assignment does not match the ring's generators")
    if any(w < 1 for w in weights):
        raise AlgebraError("weights must be >= 1")
    return _search(ring, weights, max_nodes)


def cup_bruteforce_oracle(
    ring: RingPresentation,
    degree_cap: int = 12,
    max_span: int = 4096,
) -> int:
    """Independent check for cup_length: the longest nonzero product of
    positive-degree monomials, found by breadth-first closure over a spanning
    set.  Any nonzero product of m elements expands to a nonzero product of m
    monomials and conversely, so this equals the cup-length.  Deliberately a
    different algorithm from the exponent-vector search; test use only."""
    if ring.ngens > _ORACLE_MAX_GENS:
        raise AlgebraError(
            f"oracle refuses rings with more than {_ORACLE_MAX_GENS} generators"
        )
    bounds = [k - 1 for k in ring.nilpotency_orders()]
    degs = [g.degree for g in ring.generators]
    span: set[tuple[int, ...]] = set()
    for evec in _cartesian(*(range(b + 1) for b in bounds)):
        if not any(evec):
            continue
        if sum(e * d for e, d in zip(evec, degs)) > degree_cap:
            continue
        m = normal_form(Monomial(1, evec), ring)
        if not m.is_zero():
            span.add(m.exps)
        if len(span) > max_span:
            raise AlgebraError("oracle spanning set too large")
    if not span:
        return 0
    length = 1
    frontier = set(span)
    while True:
        nxt: set[tuple[int, ...]] = set()
        for a in frontier:
            for b in span:
                m = normal_form(
                    Monomial(1, tuple(x + y for x, y in zip(a, b))), ring
                )
                if not m.is_zero():
                    nxt.add(m.exps)
        if not nxt:
            return length
        length += 1
        frontier = nxt
