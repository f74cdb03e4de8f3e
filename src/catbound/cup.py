"""Cup-length and weighted category-weight lower bounds by branch-and-bound
search.

Both searches range over generator exponent vectors e with e_i strictly below
the nilpotency order of the i-th generator, keep only vectors whose monomial
has nonzero normal form, and maximize sum(w_i * e_i).  With unit weights the
maximum is the cup-length of the presentation; with declared weights it is a
lower bound for the category weight of the space (weights certify how deep in
the Ganea-style filtration each factor sits, and weights are superadditive
under products).  Nothing here claims exactness beyond the lower bound.

The search is a depth-first walk that tries each generator's exponents in
descending order and cuts a branch once its value plus the admissible suffix
bound sum_{j>i} w_j * (order_j - 1) falls strictly below the best value found
so far.  The bound never underestimates a completion, so no maximiser is cut.
Leaves arrive in descending lexicographic order and ties replace the current
best, so the reported witness is the lexicographically smallest maximiser.

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


class WeightAssignment(NamedTuple):
    """Per-generator weights, aligned with the ring's generator order."""

    weights: tuple[int, ...]

    @classmethod
    def ones(cls, ring: RingPresentation) -> "WeightAssignment":
        return cls((1,) * ring.ngens)

    @classmethod
    def declared(cls, ring: RingPresentation) -> "WeightAssignment":
        return cls(tuple(g.weight for g in ring.generators))

    @classmethod
    def for_space(cls, ring: RingPresentation, loopspace_even: bool) -> "WeightAssignment":
        """Declared weights, with every even-degree generator raised to >= 2
        when the space's based loops have even cohomology (the first
        projective-plane stage is then a suspension, so even classes carry
        weight at least two)."""
        ws = []
        for g in ring.generators:
            w = g.weight
            if loopspace_even and g.degree % 2 == 0:
                w = max(w, 2)
            ws.append(w)
        return cls(tuple(ws))


class CupResult(NamedTuple):
    """Outcome of a search: the maximum, one witness vector, and whether
    non-unit weights were in play.  The witness is the lexicographically
    smallest exponent vector attaining the maximum."""

    value: int
    witness: tuple[int, ...]
    weighted: bool

    def witness_str(self, ring: RingPresentation) -> str:
        parts = []
        for g, e in zip(ring.generators, self.witness):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return " ".join(parts) if parts else "1"


# Level i tries e_i from its top (nilpotency order minus one, clipped to the
# degree hint) down to 0, each as one product mono * x_i^e of exponent vectors;
# mono is in normal form, so _truncates starts at i.  A zero product is skipped,
# not a stop, since a smaller power may survive; a bound strictly below the
# best is a stop.  Each product with e > 0 is one node of max_nodes, and None
# stands for DEFAULT_MAX_NODES.
def _search(
    ring: RingPresentation,
    weights: tuple[int, ...],
    max_nodes: int | None,
) -> CupResult:
    if max_nodes is None:
        max_nodes = DEFAULT_MAX_NODES
    n = ring.ngens
    tops = [k - 1 for k in ring.nilpotency_orders()]
    hint = ring.top_degree_hint
    degs = [g.degree for g in ring.generators]
    # suffix[i]: the most that generators i, i+1, ... can still add.
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] + weights[i] * tops[i]
    best_val = 0
    best_wit = (0,) * n
    evec = [0] * n
    nodes = 0

    def rec(i: int, mono: list[int], val: int, deg: int) -> None:
        nonlocal best_val, best_wit, nodes
        if i == n:
            if val >= best_val:  # ties: later leaves are lexicographically smaller
                best_val = val
                best_wit = tuple(evec)
            return
        top = tops[i]
        if hint is not None:
            top = min(top, (hint - deg) // degs[i])
        for e in range(top, -1, -1):
            if val + e * weights[i] + suffix[i + 1] < best_val:
                break  # smaller exponents only lower the bound further
            cur = mono
            if e > 0:
                nodes += 1
                if nodes > max_nodes:
                    raise SearchBudgetExceeded(
                        f"cup search exceeded {max_nodes} nodes on ring "
                        f"{ring.name!r}; raise the budget to continue"
                    )
                cur = mono.copy()
                cur[i] += e
                if _truncates(cur, ring, i):
                    continue
            evec[i] = e
            rec(i + 1, cur, val + e * weights[i], deg + e * degs[i])
        evec[i] = 0

    rec(0, [0] * n, 0, 0)
    return CupResult(best_val, best_wit, False)


def cup_length(ring: RingPresentation, max_nodes: int | None = None) -> CupResult:
    """Longest nonzero product of generators: max sum(e_i) over exponent
    vectors whose monomial survives normalization.  The empty product counts
    as zero, so a presentation with no nonzero positive-degree monomial has
    cup-length 0."""
    return _search(ring, (1,) * ring.ngens, max_nodes)


def weighted_wgt_lower(
    ring: RingPresentation,
    weights: WeightAssignment | None = None,
    max_nodes: int | None = None,
) -> CupResult:
    """Max sum(w_i * e_i) over nonzero exponent vectors: a lower bound for
    the category weight of any space with this cohomology.  With unit weights
    this degenerates to cup_length."""
    if weights is None:
        weights = WeightAssignment.declared(ring)
    ws = weights.weights
    if len(ws) != ring.ngens:
        raise AlgebraError("weight assignment does not match the ring's generators")
    if any(w < 1 for w in ws):
        raise AlgebraError("weights must be >= 1")
    res = _search(ring, ws, max_nodes)
    return CupResult(res.value, res.witness, True)


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
