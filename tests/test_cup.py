import random

import pytest

from catbound import algebra
from catbound.algebra import (
    AlgebraError,
    RingPresentation,
    Substitution,
    normal_form,
)
from catbound.catalog import link
from catbound.cup import (
    CupResult,
    SearchBudgetExceeded,
    WeightAssignment,
    cup_bruteforce_oracle,
    cup_length,
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
    unit = weighted_wgt_lower(ring, WeightAssignment.ones(ring))
    assert plain.value == unit.value == 4
    assert not plain.weighted and unit.weighted


def test_loopspace_even_weights_double_the_even_generator():
    ring = pu3_ring()
    weights = WeightAssignment.for_space(ring, loopspace_even=True)
    assert weights.weights == (1, 2, 1)
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
        weights = WeightAssignment(
            tuple(rng.randint(1, 3) for _ in ring.generators)
        )
        assert weighted_wgt_lower(ring, weights).value >= cup_length(ring).value


def test_weight_validation():
    ring = pu3_ring()
    with pytest.raises(AlgebraError, match="does not match"):
        weighted_wgt_lower(ring, WeightAssignment((1, 2)))
    with pytest.raises(AlgebraError, match=">= 1"):
        weighted_wgt_lower(ring, WeightAssignment((1, 0, 1)))


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


@pytest.mark.parametrize("k", [5, 6, 7])
def test_doubling_chain_cup_length(k):
    res = cup_length(doubling_chain(k))
    assert (res.value, res.witness) == (2**k - 1, (2**k - 1,) + (0,) * (k - 1))


def _budget_cases():
    rings = link([parse(RAND_RINGS)]).rings
    r9, r6 = rings["Rand9_r"], rings["Rand6_r"]
    return [
        pytest.param(r9, (1,) * 6, 2020, 22, (4, 2, 2, 8, 1, 5), id="Rand9_r-cup"),
        pytest.param(r9, (1, 2, 1, 2, 1, 1), 938, 35, (4, 5, 2, 8, 0, 3), id="Rand9_r-wgt"),
        pytest.param(r6, (1,) * 6, 1087, 19, (5, 1, 5, 2, 1, 5), id="Rand6_r-cup"),
        pytest.param(doubling_chain(6), (1,) * 6, 5275, 63, (63,) + (0,) * 5, id="C6-cup"),
    ]


@pytest.mark.parametrize("ring, weights, nodes, value, witness", _budget_cases())
def test_search_tree_is_pinned_by_its_node_count(ring, weights, nodes, value, witness):
    # The exact budget that finishes the search, and one node less that does
    # not: any change to the tree's order, pruning or node count moves them.
    res = weighted_wgt_lower(ring, WeightAssignment(weights), max_nodes=nodes)
    assert (res.value, res.witness) == (value, witness)
    with pytest.raises(SearchBudgetExceeded):
        weighted_wgt_lower(ring, WeightAssignment(weights), max_nodes=nodes - 1)


def test_orders_are_computed_once_per_ring(monkeypatch):
    calls = []
    original = algebra.nilpotency_order

    def counted(name, ring):
        calls.append(name)
        return original(name, ring)

    monkeypatch.setattr(algebra, "nilpotency_order", counted)
    ring = pu3_ring()
    cup_length(ring)
    weighted_wgt_lower(ring)
    weighted_wgt_lower(ring, WeightAssignment.for_space(ring, loopspace_even=True))
    assert calls == [g.name for g in ring.generators]


def test_result_is_reproducible():
    a = cup_length(so5_ring())
    b = cup_length(so5_ring())
    assert a == b == CupResult(8, (7, 1), False)


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


@pytest.mark.parametrize("hinted", [False, True], ids=["no-hint", "hint"])
def test_search_matches_the_reference_engine(hinted):
    rng = random.Random(20261017 + hinted)
    seen = set()
    for _ in range(150):
        ring = random_presentation(rng, hinted=hinted)
        seen.add((ring.p, bool(ring.substitutions)))
        ones = (1,) * ring.ngens
        weights = tuple(rng.randint(1, 3) for _ in ring.generators)
        res = cup_length(ring)
        assert (res.value, res.witness) == reference_search(ring, ones), repr(ring)
        res = weighted_wgt_lower(ring, WeightAssignment(weights))
        assert (res.value, res.witness) == reference_search(ring, weights), (
            repr(ring), weights,
        )
    assert seen >= {(p, s) for p in (2, 3, 5) for s in (False, True)}


def test_witness_is_the_smallest_of_tied_maximisers():
    # x1^2 = x2 with x2^2 = 0: x1^3 and x1 x2 both reach weight 3 when x2
    # weighs 2; the reference engine reports the smaller vector (1, 1).
    ring = pu2_ring()
    res = weighted_wgt_lower(ring, WeightAssignment((1, 2)))
    assert (res.value, res.witness) == reference_search(ring, (1, 2)) == (3, (1, 1))


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
