import random

import pytest

from catbound import algebra, cup
from catbound.algebra import (
    AlgebraError,
    Monomial,
    RingPresentation,
    Substitution,
    normal_form,
)
from catbound.catalog import link
from catbound.cup import (
    CupResult,
    SearchBudgetExceeded,
    cup_bruteforce_oracle,
    cup_length,
    space_weights,
    weighted_wgt_lower,
)
from catbound.dsl import parse
from reference_search import random_presentation, reference_search, substitution_chain

# Node budget for north-star rings: enough for the pruned search, far too
# little for an exhaustive one.
_NORTH_STAR_NODES = 10_000


def so5_ring():
    return RingPresentation(2, [("x1", 1, 8), ("x3", 3, 2)], name="so5")


def pu2_ring():
    return RingPresentation(
        2,
        [("x1", 1), ("x2", 2, 2)],
        substitutions={"x1": Substitution(2, 1, (("x2", 1),))},
        name="pu2",
    )


def exterior_ring(k):
    return RingPresentation(
        2, [(f"e{2 * i + 1}", 2 * i + 1, 2) for i in range(k)], name=f"E{k}"
    )


def pu3_ring():
    return RingPresentation(
        3, [("x1", 1, 2), ("x2", 2, 3), ("x3", 3, 2)], name="pu3"
    )


# -- exact values -------------------------------------------------------------


def test_truncated_polynomial_times_exterior():
    res = cup_length(so5_ring())
    assert res.value == 8
    assert res.witness == (7, 1)
    assert res.witness_str(so5_ring()) == "x1^7 x3"


def test_pure_exterior_algebra_counts_generators():
    ring = RingPresentation(2, [(f"x{2 * i + 1}", 2 * i + 1, 2) for i in range(1, 4)])
    assert cup_length(ring).value == 3
    # North-star size: a return to exhaustive search overruns the budget.
    ring = exterior_ring(22)
    assert cup_length(ring, max_nodes=_NORTH_STAR_NODES).value == 22
    assert weighted_wgt_lower(ring, max_nodes=_NORTH_STAR_NODES).value == 22


def test_substitution_ring_counts_generator_factors():
    # x1^2 = x2 and x2^2 = 0, so x1^3 is the longest word.
    res = cup_length(pu2_ring())
    assert res.value == 3
    assert res.witness == (3, 0)


def test_empty_ring_has_no_positive_classes():
    res = cup_length(RingPresentation(2, [], name="point"))
    assert res.value == 0
    assert res.witness == ()


def test_single_truncated_generator():
    for t in (4, 3_000_000):
        ring = RingPresentation(2, [("x", 1, t)])
        res = cup_length(ring, max_nodes=_NORTH_STAR_NODES)
        assert (res.value, res.witness) == (t - 1, (t - 1,))


def test_cup_is_additive_over_disjoint_generators():
    left = RingPresentation(2, [("x1", 1, 4)])
    right = RingPresentation(2, [("y3", 3, 2)])
    both = RingPresentation(2, [("x1", 1, 4), ("y3", 3, 2)])
    assert (
        cup_length(both).value
        == cup_length(left).value + cup_length(right).value
    )


def test_raising_a_truncation_raises_the_value():
    low = RingPresentation(2, [("x", 2, 3)])
    high = RingPresentation(2, [("x", 2, 5)])
    assert cup_length(high).value > cup_length(low).value


def test_witness_is_a_nonzero_normal_form_of_the_right_size():
    for ring in (so5_ring(), pu2_ring(), pu3_ring()):
        res = cup_length(ring)
        m = ring.monomial(
            {g.name: e for g, e in zip(ring.generators, res.witness)}
        )
        assert not normal_form(m, ring).is_zero()
        assert sum(res.witness) == res.value


# -- weighted variant ---------------------------------------------------------


def test_unit_weights_reproduce_the_plain_value():
    ring = pu3_ring()
    plain = cup_length(ring)
    unit = weighted_wgt_lower(ring, (1,) * ring.ngens)
    assert plain == unit == (4, (1, 2, 1))


def test_loopspace_even_weights_double_the_even_generator():
    ring = pu3_ring()
    weights = space_weights(ring, loopspace_even=True)
    assert weights == (1, 2, 1)
    res = weighted_wgt_lower(ring, weights)
    assert res.value == 6
    assert res.witness == (1, 2, 1)
    assert res.witness_str(ring) == "x1 x2^2 x3"


def test_default_weights_come_from_the_ring():
    ring = RingPresentation(2, [("x1", 1, 8, 1), ("x3", 3, 2, 3)])
    res = weighted_wgt_lower(ring)
    assert res.value == 7 * 1 + 1 * 3


def test_weighted_value_dominates_the_plain_one():
    rng = random.Random(7)
    for _ in range(20):
        ring = _random_ring(rng)
        weights = tuple(rng.randint(1, 3) for _ in ring.generators)
        assert weighted_wgt_lower(ring, weights).value >= cup_length(ring).value


def test_weight_validation():
    ring = pu3_ring()
    with pytest.raises(AlgebraError, match="does not match"):
        weighted_wgt_lower(ring, (1, 2))
    with pytest.raises(AlgebraError, match=">= 1"):
        weighted_wgt_lower(ring, (1, 0, 1))


# -- search bookkeeping -------------------------------------------------------


def test_budget_exhaustion_is_reported():
    # The pruned search settles SO(5) in exactly two nodes (x1^7, then x3).
    with pytest.raises(SearchBudgetExceeded, match="raise the budget"):
        cup_length(so5_ring(), max_nodes=1)
    assert cup_length(so5_ring(), max_nodes=2).value == 8
    # An exterior algebra on 12 generators needs one node per generator.
    with pytest.raises(SearchBudgetExceeded, match="raise the budget"):
        cup_length(exterior_ring(12), max_nodes=11)


# Two rings of the benchmark's random pool (perfbench/inputs.random_text(9)
# and (6)), the slowest of its ring-scaling cases.
RAND_RINGS = """
ring Rand9_r over Z/2 {
  gen g0 : deg 1 trunc 5;
  gen g1 : deg 6 weight 2;
  gen g2 : deg 3 trunc 3;
  gen g3 : deg 4 weight 2;
  gen g4 : deg 6 trunc 6;
  gen g5 : deg 6 trunc 6;
  rel g3^3 = g4^2;
  rel g1^3 = g5^2 * g4;
}

ring Rand6_r over Z/2 {
  gen g0 : deg 1 trunc 6;
  gen g1 : deg 6 trunc 2;
  gen g2 : deg 5 trunc 6;
  gen g3 : deg 1;
  gen g4 : deg 1;
  gen g5 : deg 1 trunc 6;
  rel g4^2 = g5^2;
  rel g3^3 = g5^2 * g4;
}
"""


def doubling_chain(k):
    """x_i^2 = x_{i+1}, the last generator truncated at 2: the cup-length is
    2^k - 1, reached by x_0 alone."""
    return substitution_chain(2, [2] * (k - 1), 2)


@pytest.mark.parametrize("k", [5, 6, 7, 8, 10, 16])
def test_doubling_chain_cup_length(k):
    # Every x_{i+1} = x_i^2 weighs 1 < 2 * 1, so the search fixes e_{i+1} = 0
    # and settles the chain in one node, x0^(2^k - 1).
    ring = doubling_chain(k)
    res = cup_length(ring, max_nodes=1)
    assert (res.value, res.witness) == (2**k - 1, (2**k - 1,) + (0,) * (k - 1))
    with pytest.raises(SearchBudgetExceeded):
        cup_length(ring, max_nodes=0)


def test_chain_with_unit_coefficients_other_than_one():
    # Over Z/3: x0^3 = x1, x1^3 = 2 x2, x2^3 = x3, x3^3 = 0.
    ring = substitution_chain(3, [3, 3, 3], 3)
    assert ring.substitutions["x1"].coeff == 2
    res = cup_length(ring, max_nodes=1)
    assert (res.value, res.witness) == (80, (80, 0, 0, 0))
    assert (res.value, res.witness) == reference_search(ring, (1,) * 4)


def _square_ring(trunc):
    return RingPresentation(
        2,
        [("x", 2), ("y", 4, trunc)],
        substitutions={"x": Substitution(2, 1, (("y", 1),))},
    )


def test_collapse_reaches_a_huge_truncation_in_one_node():
    # x^2 = y with y^(10^12) = 0: x alone reaches 2 * 10^12 - 1, and y,
    # weighing 1 < 2 * 1, is never needed.
    res = cup_length(_square_ring(10**12), max_nodes=1)
    assert (res.value, res.witness) == (2 * 10**12 - 1, (2 * 10**12 - 1, 0))


def test_normal_form_reaches_a_huge_truncation_in_q_steps():
    ring = _square_ring(10**12)
    m = normal_form(ring.monomial({"x": 2 * 10**12 - 1}), ring)
    assert m == Monomial(1, (1, 10**12 - 1))
    assert normal_form(ring.monomial({"x": 2 * 10**12}), ring).is_zero()


def test_collapse_settles_a_tie():
    # At weights (1, 2), y weighs exactly as much as x^2: x^(2t - 1) and
    # x y^(t - 1) tie, and the smaller witness trades every x^2 for a y, so
    # x is capped at 1 and the search takes one node per generator.
    res = weighted_wgt_lower(_square_ring(10**12), (1, 2), max_nodes=2)
    assert (res.value, res.witness) == (2 * 10**12 - 1, (1, 10**12 - 1))
    twin = _square_ring(10)
    res = weighted_wgt_lower(twin, (1, 2))
    assert (res.value, res.witness) == reference_search(twin, (1, 2)) == (19, (1, 9))
    # A heavier y is capped the same way, and its maximiser is unique.
    res = weighted_wgt_lower(_square_ring(10**12), (1, 3), max_nodes=2)
    assert (res.value, res.witness) == (3 * 10**12 - 2, (1, 10**12 - 1))
    res = weighted_wgt_lower(twin, (1, 3))
    assert (res.value, res.witness) == reference_search(twin, (1, 3)) == (28, (1, 9))


def test_wide_rings_split_into_one_factor_per_generator():
    ring = exterior_ring(4800)
    assert len(ring.factors) == 4800
    assert all(len(f.gens) == 1 for f in ring.factors)
    assert cup_length(ring, max_nodes=4800).value == 4800
    # A chain is one connected component.
    assert [f.gens for f in doubling_chain(16).factors] == [tuple(range(16))]


def _budget_cases():
    rings = link([parse(RAND_RINGS)]).rings
    r9, r6 = rings["Rand9_r"], rings["Rand6_r"]
    return [
        pytest.param(r9, (1,) * 6, 33, 22, (4, 2, 2, 8, 1, 5), id="Rand9_r-cup"),
        pytest.param(r9, (1, 2, 1, 2, 1, 1), 24, 35, (4, 5, 2, 8, 0, 3), id="Rand9_r-wgt"),
        pytest.param(r6, (1,) * 6, 10, 19, (5, 1, 5, 2, 1, 5), id="Rand6_r-cup"),
        pytest.param(doubling_chain(6), (1,) * 6, 1, 63, (63,) + (0,) * 5, id="C6-cup"),
    ]


@pytest.mark.parametrize("ring, weights, nodes, value, witness", _budget_cases())
def test_search_tree_is_pinned_by_its_node_count(ring, weights, nodes, value, witness):
    # The exact budget that finishes the search, and one node less that does
    # not: any change to the tree's order, pruning or node count moves them.
    res = weighted_wgt_lower(ring, weights, max_nodes=nodes)
    assert (res.value, res.witness) == (value, witness)
    with pytest.raises(SearchBudgetExceeded):
        weighted_wgt_lower(ring, weights, max_nodes=nodes - 1)


def test_orders_are_computed_once_per_ring(monkeypatch):
    calls = []
    original = algebra.nilpotency_order

    def counted(name, ring):
        calls.append(name)
        return original(name, ring)

    monkeypatch.setattr(algebra, "nilpotency_order", counted)
    # A generator without a rule has its cap as its order and calls nothing,
    # nor does a rule whose targets have none (x^t = y, y capped: t * cap);
    # a chained rule's source is bisected once, when the ring is built; the
    # searches read the orders and compute none.
    for make, ruled, orders in (
        (pu3_ring, [], (2, 3, 2)),
        (pu2_ring, [], (4, 2)),
        (lambda: substitution_chain(2, [2, 3], 5), ["x0"], (30, 15, 5)),
    ):
        ring = make()
        assert calls == ruled
        cup_length(ring)
        weighted_wgt_lower(ring)
        weighted_wgt_lower(ring, space_weights(ring, loopspace_even=True))
        assert calls == ruled and ring.nilpotency_orders() == orders
        calls.clear()


def test_result_is_reproducible():
    a = cup_length(so5_ring())
    b = cup_length(so5_ring())
    assert a == b == CupResult(8, (7, 1))


# -- agreement with the brute-force oracle ------------------------------------


def _random_ring(rng: random.Random) -> RingPresentation:
    """Substitution-free ring with at most 3 generators and top degree <= 12."""
    p = rng.choice([2, 3, 5])
    gens = []
    budget = 12
    for i in range(rng.randint(1, 3)):
        degree = rng.randint(1, 4)
        if p != 2 and degree % 2 == 1:
            trunc = 2
        else:
            trunc = rng.randint(2, 5)
        if degree * (trunc - 1) > budget:
            continue
        budget -= degree * (trunc - 1)
        gens.append((f"g{i}", degree, trunc))
    if not gens:
        gens = [("g0", 1, 2)]
    return RingPresentation(p, gens, name=f"rand{p}")


def test_oracle_spot_values():
    assert cup_bruteforce_oracle(RingPresentation(3, [("x1", 1, 2), ("x3", 3, 2)])) == 2
    assert cup_bruteforce_oracle(RingPresentation(2, [("x", 1, 4)])) == 3
    assert cup_bruteforce_oracle(pu2_ring()) == 3
    assert cup_bruteforce_oracle(RingPresentation(5, [], name="pt")) == 0


def test_oracle_refuses_large_rings():
    ring = RingPresentation(2, [(f"x{i}", 1, 2) for i in range(4)])
    with pytest.raises(AlgebraError, match="more than 3"):
        cup_bruteforce_oracle(ring)


def test_search_matches_oracle_on_random_rings():
    rng = random.Random(20260814)
    for _ in range(60):
        ring = _random_ring(rng)
        assert cup_length(ring).value == cup_bruteforce_oracle(ring)


def test_search_matches_oracle_on_substitution_rings():
    assert cup_length(pu2_ring()).value == cup_bruteforce_oracle(pu2_ring())
    deeper = RingPresentation(
        2,
        [("x1", 1), ("x2", 2, 4)],
        substitutions={"x1": Substitution(2, 1, (("x2", 1),))},
    )
    assert cup_length(deeper).value == cup_bruteforce_oracle(deeper) == 7


# -- agreement with the original engine ---------------------------------------


def _single_target_pairs(ring, weights):
    """'collapsed' or 'tie' for each rule x_i^t = c * x_j, by comparing w_j
    with t * w_i (a lighter x_j is never needed by a maximiser)."""
    kinds = set()
    for name, sub in ring.substitutions.items():
        if len(sub.powers) == 1 and sub.powers[0][1] == 1:
            wi, wj = weights[ring.index(name)], weights[ring.index(sub.powers[0][0])]
            if wj < sub.exponent * wi:
                kinds.add("collapsed")
            elif wj == sub.exponent * wi:
                kinds.add("tie")
    return kinds


def test_search_matches_the_reference_engine(monkeypatch):
    # Whether each multi-generator factor's first phase cut a tie, so that
    # the second phase ran to find the smallest maximiser.
    tied = []
    find_value = cup._find_value

    def spy(*args):
        found = find_value(*args)
        tied.append(found[2])
        return found

    monkeypatch.setattr(cup, "_find_value", spy)
    rng = random.Random(20261017)
    seen = set()
    shapes = set()
    for _ in range(150):
        ring = random_presentation(rng)
        seen.add((ring.p, bool(ring.substitutions)))
        if len(ring.factors) > 1:
            shapes.add("split")
        ones = (1,) * ring.ngens
        weights = tuple(rng.randint(1, 3) for _ in ring.generators)
        even = space_weights(ring, loopspace_even=True)
        for w in (ones, weights, even):
            shapes |= _single_target_pairs(ring, w)
            res = weighted_wgt_lower(ring, w)
            assert (res.value, res.witness) == reference_search(ring, w), (repr(ring), w)
    assert seen >= {(p, s) for p in (2, 3, 5) for s in (False, True)}
    assert shapes == {"split", "collapsed", "tie"}
    assert set(tied) == {False, True}


def test_witness_is_the_smallest_of_tied_maximisers():
    # x1^2 = x2 with x2^2 = 0: x1^3 and x1 x2 both reach weight 3 when x2
    # weighs 2; the reference engine reports the smaller vector (1, 1).
    ring = pu2_ring()
    res = weighted_wgt_lower(ring, (1, 2))
    assert (res.value, res.witness) == reference_search(ring, (1, 2)) == (3, (1, 1))


# -- hard rings: a bound from the top degree ----------------------------------


def squares_ring(t):
    """x^2 = y^2, both of degree 2, y^t = 0: cup-length t."""
    subs = {"x": Substitution(2, 1, (("y", 2),))}
    return RingPresentation(2, [("x", 2), ("y", 2, t)], subs, name="squares")


def product_ring(t):
    """x^2 = y z, all of degree 2, y^t = z^t = 0: cup-length 2t - 1."""
    subs = {"x": Substitution(2, 1, (("y", 1), ("z", 1)))}
    return RingPresentation(2, [("x", 2), ("y", 2, t), ("z", 2, t)], subs, name="product")


def cube_ring(t):
    """x^3 = y z and y^2 = z, of degrees 2, 2 and 4, z^t = 0: cup-length
    2t + 1."""
    subs = {
        "x": Substitution(3, 1, (("y", 1), ("z", 1))),
        "y": Substitution(2, 1, (("z", 1),)),
    }
    return RingPresentation(2, [("x", 2), ("y", 2), ("z", 4, t)], subs, name="cube")


def fibonacci_ring(n):
    """x_i^2 = x_{i+1} x_{i+2}, all of degree 2, the last two cubed to zero:
    cup-length n + 2, reached by Fibonacci-many raw vectors."""
    gens = [(f"x{i}", 2) for i in range(n - 2)]
    gens += [(f"x{n - 2}", 2, 3), (f"x{n - 1}", 2, 3)]
    subs = {
        f"x{i}": Substitution(2, 1, ((f"x{i + 1}", 1), (f"x{i + 2}", 1)))
        for i in range(n - 2)
    }
    return RingPresentation(2, gens, subs, name=f"F{n}")


@pytest.mark.parametrize(
    "ring, value",
    [
        pytest.param(squares_ring(10**5), 10**5, id="squares-1e5"),
        pytest.param(squares_ring(10**30), 10**30, id="squares-1e30"),
        pytest.param(product_ring(1000), 1999, id="product-1000"),
        pytest.param(product_ring(10**6), 2 * 10**6 - 1, id="product-1e6"),
        pytest.param(cube_ring(10**4), 2 * 10**4 + 1, id="cube-1e4"),
        pytest.param(fibonacci_ring(14), 16, id="F14"),
        pytest.param(fibonacci_ring(40), 42, id="F40"),
    ],
)
def test_hard_rings_answer_within_a_small_budget(ring, value):
    # Each ran out of the default 2 * 10^6 nodes when the search walked
    # every tie under a bound blind to the top degree.
    assert cup_length(ring, max_nodes=_NORTH_STAR_NODES).value == value


def test_no_walk_steps_through_an_exponent_range():
    # Phase 2 must jump over the 10^30 exponents that fail the bound.
    res = cup_length(squares_ring(10**30), max_nodes=10)
    assert (res.value, res.witness) == (10**30, (1, 10**30 - 1))


@pytest.mark.parametrize(
    "max_nodes, phases",
    [pytest.param(53, [1], id="phase-1"), pytest.param(67, [1, 2], id="phase-2")],
)
def test_the_budget_runs_out_in_either_phase(monkeypatch, max_nodes, phases):
    # F14 takes 54 nodes to prove its value and 14 more to find its witness.
    entered = []

    def spy(phase, find):
        def run(*args):
            entered.append(phase)
            return find(*args)

        return run

    monkeypatch.setattr(cup, "_find_value", spy(1, cup._find_value))
    monkeypatch.setattr(cup, "_find_witness", spy(2, cup._find_witness))
    message = f"cup search exceeded {max_nodes} nodes on ring 'F14'; raise the budget"
    with pytest.raises(SearchBudgetExceeded, match=message):
        cup_length(fibonacci_ring(14), max_nodes=max_nodes)
    assert entered == phases


def test_the_budget_covers_both_phases_exactly():
    ring = fibonacci_ring(14)
    res = cup_length(ring, max_nodes=68)
    assert res.value == 16
    assert res.witness_str(ring) == "x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12^2 x13^2"


@pytest.mark.parametrize(
    "ring, value",
    [
        *(pytest.param(squares_ring(t), t, id=f"squares-{t}") for t in (3, 5, 8, 13)),
        *(pytest.param(product_ring(t), 2 * t - 1, id=f"product-{t}") for t in (3, 5, 8, 13)),
        *(pytest.param(cube_ring(t), 2 * t + 1, id=f"cube-{t}") for t in (3, 5, 8, 13)),
        *(pytest.param(fibonacci_ring(n), n + 2, id=f"F{n}") for n in (4, 6, 8)),
    ],
)
def test_hard_rings_agree_with_the_reference_at_small_truncations(ring, value):
    res = cup_length(ring)
    assert (res.value, res.witness) == reference_search(ring, (1,) * ring.ngens)
    assert res.value == value


# -- north-star rings within a small node budget ------------------------------


def so_mod2_ring(n):
    """SO(n) mod 2 on the odd generators x_i (i < n), x_i^{t_i} = 0 with t_i
    the least power of two such that i * t_i >= n."""
    gens = []
    for i in range(1, n, 2):
        t = 1
        while i * t < n:
            t *= 2
        gens.append((f"x{i}", i, t))
    return RingPresentation(2, gens, name=f"SO{n}_mod2")


@pytest.mark.parametrize("n", [20, 24, 48])
def test_so_mod2_cup_length_closed_form(n):
    ring = so_mod2_ring(n)
    tops = tuple(g.trunc - 1 for g in ring.generators)
    res = cup_length(ring, max_nodes=_NORTH_STAR_NODES)
    assert (res.value, res.witness) == (sum(tops), tops)
    res = weighted_wgt_lower(ring, max_nodes=_NORTH_STAR_NODES)
    assert res.value == sum(tops)
