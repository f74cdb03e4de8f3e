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

A factor that keeps two or more generators after the collapse is searched
in two depth-first phases under one bound, which never underestimates a
completion: the lesser of sum_{j>i} w_j * top_j (top_j being order_j - 1,
or its cap for a collapsed generator) and what the degree left below the
factor's top degree can buy.  The first phase descends and cuts ties too,
so it proves the value; the second runs only when the first cut a branch
that might hold a second maximiser, and it ascends to the lexicographically
smallest one, which is the factor's witness.

Each product is tested for zero on its exponent vector alone.  That is exact:
over the field Z/p its coefficient is a product of signs and substitution
coefficients, all nonzero mod p, so a monomial vanishes exactly when a
truncation fires while its exponents are rewritten.
"""

from __future__ import annotations

from itertools import product as _cartesian

from .algebra import (
    AlgebraError,
    Monomial,
    RingPresentation,
    _truncates,
    multiply_monomials,  # unused here; perfbench/tracer.py wraps this binding
    normal_form,
)
from .record import Record, _tuple_new

DEFAULT_MAX_NODES = 2_000_000
_ORACLE_MAX_GENS = 3
_ORACLE_DEGREE_CAP = 12
_ORACLE_MAX_SPAN = 4096


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


class CupResult(Record):
    """Outcome of a search: the maximum and one witness vector, the
    lexicographically smallest exponent vector attaining the maximum."""

    __slots__ = ()

    def __new__(cls, value, witness):
        return _tuple_new(cls, (value, witness))

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
# A node is a product mono * x_i^e with e > 0, in either phase below; mono is
# the product of the exponents chosen before level i, in normal form, so
# _truncates starts at i.
#
# Within a factor that keeps two or more generators after the collapse, D is
# its top degree and D_i that of its generators from i on
# (RingPresentation.top_degrees).  A prefix of value val and degree d
# extended by x_i^e has degree d' = d + e * deg_i.  If d' > D the product is
# zero.  Otherwise its completion, a nonzero product of the later
# generators, has degree at most min(D - d', D_{i+1}), so it adds at most
# min(suffix[i+1], floor(min(D - d', D_{i+1}) * num / den)), where
# suffix[i+1] = sum_{j>i} w_j * top_j and num / den is the largest w_j / deg_j
# over the later generators with top_j > 0.  The bound is not monotone in e,
# since the degree left grows as e falls, so no walk may stop at the first
# exponent that fails it.  But each of its terms is linear in e, so the
# exponents whose bound reaches a target form one interval, which _window
# finds by integer division; a level walks only that interval.
#
# Phase 1 (_find_value) finds the value V.  It walks exponents in descending
# order and cuts ties as well: a level's interval asks for more than the best
# value found so far, and it is recomputed when the walk enters the level or
# the best value has changed since.  It notes whether it cut an exponent whose
# bound equals the best value; a better leaf found later clears the note.
# Without the note, every leaf phase 1 reached beat the one before and every
# branch it cut is worth less than V, so the last leaf is the only maximiser
# and the witness.  With the note, phase 2 (_find_witness) walks exponents in
# ascending order under the same bound against V.  It leaves a level at its
# first zero product, since a higher power of the same prefix is zero too,
# and it stops at the first leaf worth V: the lexicographically smallest
# maximiser.  Both walks are loops over explicit per-level state, not
# recursions, so a factor with thousands of generators does not exhaust the
# stack.
def _window(need: int, room: int, top: int, level: tuple) -> tuple[int, int]:
    """The exponents e in [0, top] at one level whose bound reaches need more
    than the prefix's value, with room degrees left below D: e * w plus the
    completion's bound, min(most, floor((room - e * deg) * num / den)), is
    at least need, and e * deg <= room.  Written with comparisons rather
    than min and max, which cost more than the arithmetic here."""
    w, deg, most, num, den, slope = level
    lo = 0 if need <= most else (need - most + w - 1) // w
    hi = room // deg
    if top < hi:
        hi = top
    # (room - e * deg) * num >= (need - e * w) * den, linear in e
    rest = room * num - need * den
    if slope > 0:
        cut = rest // slope
        if cut < hi:
            hi = cut
    elif slope < 0:
        cut = -(rest // -slope)
        if cut > lo:
            lo = cut
    elif rest < 0:
        hi = -1
    return lo, hi


def _plan(ring: RingPresentation, f: int, w: list[int], tops: list[int]) -> tuple:
    """The search constants of factor f, given its generators' weights and
    exponent caps: its rules, the weights, degrees and caps, each level's
    _window constants, and its top degree."""
    factor = ring.factors[f]
    n = len(factor.gens)
    degs = [ring.generators[g].degree for g in factor.gens]
    below = ring.top_degrees()[f]
    # Level i's constants for _window: w_i, deg_i, then the completion's
    # most = min(suffix[i+1], floor(D_{i+1} * num / den)), num and den, and
    # slope = deg_i * num - w_i * den.
    levels = [None] * n
    suffix, num, den = 0, 0, 1
    for i in reversed(range(n)):
        most = min(suffix, below[i + 1] * num // den)
        levels[i] = (w[i], degs[i], most, num, den, degs[i] * num - w[i] * den)
        suffix += w[i] * tops[i]
        if tops[i] and w[i] * den > num * degs[i]:
            num, den = w[i], degs[i]
    return factor.subs, factor.caps, w, degs, tops, levels, below[0]


def _find_value(
    plan: tuple, nodes: int, max_nodes: int, ring: RingPresentation
) -> tuple[int, list[int], bool, int]:
    """Phase 1: the factor's value, the last leaf found, whether an exponent
    whose bound equals the value was cut, and the nodes counted so far."""
    subs, caps, w, degs, tops, levels, top_degree = plan
    n = len(subs)
    evec = [0] * n
    # Level i's state: the exponent it tries next and the last it may try,
    # the best value its window was computed for (-1: none yet), and the
    # product, value and degree of the exponents chosen above it.  Only level
    # 0's entries are read before a descent sets them.
    next_e = [0] * n
    last_e = [0] * n
    seen = [-1] * n
    monos = [[0] * n] * n
    vals = [0] * n
    dsum = [0] * n
    best_val = 0
    best_wit = [0] * n
    tied = False
    next_e[0] = tops[0]
    i = 0
    while i >= 0:
        if seen[i] != best_val:
            seen[i] = best_val
            need = best_val - vals[i]
            room = top_degree - dsum[i]
            top = next_e[i]
            lo, hi = _window(need + 1, room, top, levels[i])
            if not tied and (lo > 0 or hi < top):
                # The window drops exponents: is one of them worth a tie?
                tlo, thi = _window(need, room, top, levels[i])
                tied = tlo <= thi and (lo > hi or tlo < lo or thi > hi)
            next_e[i], last_e[i] = hi, lo
        e = next_e[i]
        if e < last_e[i]:
            i -= 1
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
        if i == n - 1:  # the window asked for more than best_val
            best_val = vals[i] + e * w[i]
            best_wit = evec.copy()
            tied = False
            i -= 1  # a smaller last exponent is worth less, not a tie
        else:
            vals[i + 1] = vals[i] + e * w[i]
            dsum[i + 1] = dsum[i] + e * degs[i]
            i += 1
            next_e[i], seen[i], monos[i] = tops[i], -1, cur
    return best_val, best_wit, tied, nodes


def _find_witness(
    plan: tuple, value: int, nodes: int, max_nodes: int, ring: RingPresentation
) -> tuple[list[int], int]:
    """Phase 2: the lexicographically smallest exponent vector worth value,
    which phase 1 proved the factor's maximum, and the nodes counted so far."""
    subs, caps, w, degs, tops, levels, top_degree = plan
    n = len(subs)
    evec = [0] * n
    # Level i's state: the exponent it tries next and the last it may try,
    # and the product, value and degree of the exponents chosen above it.
    next_e = [0] * n
    last_e = [0] * n
    monos = [[0] * n] * n
    vals = [0] * n
    dsum = [0] * n
    next_e[0], last_e[0] = _window(value, top_degree, tops[0], levels[0])
    i = 0
    while i >= 0:
        e = next_e[i]
        if e > last_e[i]:
            i -= 1
            continue
        next_e[i] = e + 1
        cur = monos[i]
        if e > 0:
            nodes += 1
            if nodes > max_nodes:
                raise _over_budget(ring, max_nodes)
            cur = cur.copy()
            cur[i] += e
            if _truncates(cur, subs, caps, i):
                last_e[i] = -1
                continue
        evec[i] = e
        if i == n - 1:  # the window asked for value: no leaf is worth more
            return evec, nodes
        val = vals[i + 1] = vals[i] + e * w[i]
        d = dsum[i + 1] = dsum[i] + e * degs[i]
        i += 1
        monos[i] = cur
        next_e[i], last_e[i] = _window(value - val, top_degree - d, tops[i], levels[i])
    raise AssertionError("phase 1 found a value that no vector reaches")


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
    for f, factor in enumerate(ring.factors):
        g = factor.gens[0]
        top = orders[g] - 1
        if len(factor.gens) > 1:
            w = [weights[k] for k in factor.gens]
            tops = [orders[k] - 1 for k in factor.gens]
            for i, sub in enumerate(factor.subs):
                # x_i^t = c * x_j: with w_j < t * w_i no maximiser uses x_j,
                # otherwise the smallest maximiser has e_i < t.
                if sub is not None and len(sub[1]) == 1:
                    (j, a), = sub[1]
                    if a == 1:
                        if w[j] < sub[0] * w[i]:
                            tops[j] = 0
                        else:  # min: an earlier rule may have fixed e_i = 0
                            tops[i] = min(tops[i], sub[0] - 1)
            if tops.count(0) < len(tops) - 1:
                plan = _plan(ring, f, w, tops)
                value, best, tied, nodes = _find_value(plan, nodes, max_nodes, ring)
                if tied:
                    best, nodes = _find_witness(plan, value, nodes, max_nodes, ring)
                total += value
                for k, e in zip(factor.gens, best):
                    witness[k] = e
                continue
            top = tops[0]
        # One generator is left: a lone one, which carries no substitution,
        # or the first of a factor whose other generators the collapse fixed
        # at 0, such as a doubling chain.  (The first is never a target, so
        # it keeps a cap of at least 1.)  Its top power survives and is the
        # only vector worth as much, so it takes the one node the walks would
        # take, without their setup; most factors are lone generators.
        nodes += 1
        if nodes > max_nodes:
            raise _over_budget(ring, max_nodes)
        total += weights[g] * top
        witness[g] = top
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
    if min(weights, default=1) < 1:
        raise AlgebraError("weights must be >= 1")
    return _search(ring, weights, max_nodes)


def cup_bruteforce_oracle(ring: RingPresentation) -> int:
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
        if sum(e * d for e, d in zip(evec, degs)) > _ORACLE_DEGREE_CAP:
            continue
        m = normal_form(Monomial(1, evec), ring)
        if not m.is_zero():
            span.add(m.exps)
        if len(span) > _ORACLE_MAX_SPAN:
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
