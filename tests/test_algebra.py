import importlib.util
import itertools
import json
import random
import sys
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catbound import algebra
from catbound.algebra import (
    AlgebraError,
    Monomial,
    RingPresentation,
    Substitution,
    multiply_monomials,
    nilpotency_order,
    normal_form,
)
from catbound.algebra import _is_prime, _koszul_parity, _truncates
from catbound.corpus import parse_sources, read_sources
from catbound.dsl import parse
from reference_search import (
    degree,
    linear_nilpotency_order,
    one,
    one_step_normal_form,
    random_presentation,
    substitution_chain,
)


def exterior(p, *degrees):
    return RingPresentation(
        p, [(f"x{d}", d, 2) for d in degrees], name=f"ext{p}"
    )


def sub_ring():
    # Z/2: x1^2 = x2, x2^4 = 0
    return RingPresentation(
        2,
        [("x1", 1), ("x2", 2, 4)],
        substitutions={"x1": Substitution(2, 1, (("x2", 1),))},
        name="sub2",
    )


# -- sorting signs -----------------------------------------------------------


def test_odd_odd_transposition_costs_a_sign_mod_3():
    ring = exterior(3, 1, 3)
    m = ring.monomial_word(["x3", "x1"])
    assert m == Monomial(2, (1, 1))  # -1 = 2 mod 3


def test_word_in_order_has_no_sign():
    ring = exterior(3, 1, 3)
    assert ring.monomial_word(["x1", "x3"]) == Monomial(1, (1, 1))


def test_even_factor_commutes_freely():
    ring = RingPresentation(3, [("a", 2, 3), ("b", 3, 2)])
    assert ring.monomial_word(["b", "a"]) == ring.monomial_word(["a", "b"])


def test_monomial_product_matches_word_construction():
    ring = exterior(5, 1, 3)
    u = ring.monomial({"x3": 1})
    v = ring.monomial({"x1": 1})
    assert multiply_monomials(u, v, ring) == ring.monomial_word(["x3", "x1"])


def _sorted_word(ring, word, coeff):
    """Test-only reference for monomial_word on a truncation-only ring: the
    sign is (-1) to the number of odd-odd inversions in the word, counted
    pair by pair, and a power at its truncation kills the monomial."""
    idxs = [ring.index(w) for w in word]
    odd = [g.degree % 2 == 1 for g in ring.generators]
    inversions = sum(
        1
        for a in range(len(idxs))
        for b in range(a + 1, len(idxs))
        if idxs[b] < idxs[a] and odd[idxs[a]] and odd[idxs[b]]
    )
    exps = tuple(idxs.count(i) for i in range(ring.ngens))
    c = (-coeff if inversions % 2 else coeff) % ring.p
    for order, e in zip(ring.nilpotency_orders(), exps):
        if e >= order:
            c = 0
    return Monomial(c, exps) if c else ring.zero_monomial()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monomial_word_sign_matches_counted_inversions(p):
    rng = random.Random(7000 + p)
    for k in range(60):
        gens = []
        for i in range(rng.randint(1, 5)):
            deg = rng.randint(1, 5)
            trunc = 2 if (p != 2 and deg % 2) else rng.randint(2, 5)
            gens.append((f"g{i}", deg, trunc))
        ring = RingPresentation(p, gens, name=f"t{p}_{k}")
        names = [g.name for g in ring.generators]
        for _ in range(25):
            word = [rng.choice(names) for _ in range(rng.randint(0, 7))]
            coeff = rng.randrange(1, p)
            assert ring.monomial_word(word, coeff) == _sorted_word(ring, word, coeff)


def test_graded_commutativity_sign():
    ring = exterior(5, 3, 5)
    u = ring.monomial({"x3": 1})
    v = ring.monomial({"x5": 1})
    uv = multiply_monomials(u, v, ring)
    vu = multiply_monomials(v, u, ring)
    assert vu.exps == uv.exps
    assert vu.coeff == (-uv.coeff) % 5  # both factors odd


# -- substitutions and truncations -------------------------------------------


def test_substitution_rewrites_high_powers():
    ring = sub_ring()
    m = normal_form(ring.monomial({"x1": 7}), ring)
    assert m == Monomial(1, (1, 3))  # x1^7 = x1 x2^3


def test_substitution_hits_truncation():
    ring = sub_ring()
    assert normal_form(ring.monomial({"x1": 8}), ring).is_zero()


def test_nilpotency_matches_repeated_multiplication():
    ring = sub_ring()
    x1 = ring.monomial({"x1": 1})
    acc = one(ring)
    k = 0
    while not acc.is_zero():
        acc = multiply_monomials(acc, x1, ring)
        k += 1
    assert k == 8
    assert nilpotency_order("x1", ring) == 8


def test_truncation_kills_exactly_at_the_cap():
    ring = RingPresentation(2, [("x", 1, 4)])
    assert not normal_form(ring.monomial({"x": 3}), ring).is_zero()
    assert normal_form(ring.monomial({"x": 4}), ring).is_zero()
    assert nilpotency_order("x", ring) == 4


def test_odd_generator_squares_to_zero_over_odd_prime():
    ring = RingPresentation(5, [("y", 3)])
    assert ring.nilpotency_orders() == (2,)
    assert normal_form(ring.monomial({"y": 2}), ring).is_zero()


def test_zero_target_substitution_is_a_truncation():
    ring = RingPresentation(
        2, [("x", 2)], substitutions={"x": Substitution(3, 0, ())}
    )
    assert ring.nilpotency_orders() == (3,)
    assert nilpotency_order("x", ring) == 3


def test_substitution_carries_koszul_sign():
    # z/3: a (even) with a^3 = b*c, both odd and later.  Multiplying a^2 * a
    # must agree with normalizing a^3 directly.
    ring = RingPresentation(
        3,
        [("a", 2, None), ("b", 3, 2), ("c", 3, 2)],
        substitutions={"a": Substitution(3, 1, (("b", 1), ("c", 1)))},
    )
    direct = normal_form(ring.monomial({"a": 3}), ring)
    stepped = multiply_monomials(
        ring.monomial({"a": 2}), ring.monomial({"a": 1}), ring
    )
    assert direct == stepped == Monomial(1, (0, 1, 1))
    # a^3 * b = b*c*b = -b^2*c = 0 since b is exterior
    assert normal_form(ring.monomial({"a": 3, "b": 1}), ring).is_zero()
    # a^3 * c = b*c*c = 0
    assert normal_form(ring.monomial({"a": 3, "c": 1}), ring).is_zero()


def test_substitution_sign_counts_the_factors_its_target_passes():
    # Z/3: a^2 = b*c.  In a^2 * u the target b*c lands left of u, and sorting
    # b c u into b u c moves u past c: one odd-odd transposition.
    ring = RingPresentation(
        3,
        [("a", 2), ("b", 1), ("u", 1), ("c", 3)],
        substitutions={"a": Substitution(2, 1, (("b", 1), ("c", 1)))},
    )
    a2u = ring.monomial({"a": 2, "u": 1})
    assert normal_form(a2u, ring) == Monomial(2, (0, 1, 1, 1))
    assert ring.monomial_word(["a", "a", "u"]) == ring.monomial_word(["b", "c", "u"])
    assert ring.monomial_word(["b", "c", "u"]) == Monomial(2, (0, 1, 1, 1))


def _odd_target_ring():
    # Z/3: x^2 = 2*y*z with y and z odd, and odd generators left of x,
    # between x and y, between y and z, and right of z.
    return RingPresentation(
        3,
        [("u", 1), ("x", 2), ("v", 3), ("y", 1), ("w", 5), ("z", 3), ("s", 1)],
        substitutions={"x": Substitution(2, 2, (("y", 1), ("z", 1)))},
    )


def test_normal_form_matches_the_one_step_rewrite():
    rng = random.Random(20261019)
    rings = [random_presentation(rng, max_gens=7) for _ in range(300)]
    for p in (2, 3, 5):
        for _ in range(10):
            exponents = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
            rings.append(substitution_chain(p, exponents, rng.randint(2, 5)))
    for ring in rings:
        orders = ring.nilpotency_orders()
        for _ in range(20):
            # up to twice each order, so most rules take several steps
            exps = tuple(rng.randint(0, 2 * k) for k in orders)
            m = Monomial(rng.randint(0, 2 * ring.p), exps)
            want = one_step_normal_form(m, ring)
            assert normal_form(m, ring) == want, (repr(ring), m)
    # every x^k (k <= 5) times every odd part with exponents up to 2
    ring = _odd_target_ring()
    signs = set()
    for odd in itertools.product(range(3), repeat=6):
        for k in range(6):
            m = Monomial(1, odd[:1] + (k,) + odd[1:])
            want = one_step_normal_form(m, ring)
            assert normal_form(m, ring) == want, m
            if k >= 2 and not want.is_zero():
                signs.add(want.coeff)  # 2 * (+1 or -1) after one step
    assert signs == {1, 2}


def test_normal_form_coefficient_is_the_rule_coefficient_to_the_q():
    # Z/3: x^2 = 2*y, so x^(2q+r) = 2^q x^r y^q.
    ring = RingPresentation(
        3,
        [("x", 2), ("y", 4, 10**12)],
        substitutions={"x": Substitution(2, 2, (("y", 1),))},
    )
    for q, r in ((10**12 - 1, 1), (10**12 - 1, 0), (10**12 - 2, 1)):
        m = normal_form(ring.monomial({"x": 2 * q + r}), ring)
        assert m == Monomial(pow(2, q, 3), (r, q))
    assert normal_form(ring.monomial({"x": 2 * 10**12}), ring).is_zero()


def test_normal_form_takes_each_sign_once_per_rule(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _koszul_parity(*args)

    monkeypatch.setattr(algebra, "_koszul_parity", counted)
    chain = substitution_chain(3, [2, 2], 10**3)
    for ring, name in ((chain, "x0"), (_odd_target_ring(), "x")):
        # the first exponent takes 999 single steps in the first rule
        for k in (2 * 10**3 - 1, 2 * 10**12 - 1):
            calls.clear()
            normal_form(ring.monomial({name: k}), ring)
            assert len(calls) <= len(ring.substitutions), (ring, k)


def test_degree_is_additive_on_nonzero_products():
    ring = sub_ring()
    u = ring.monomial({"x1": 3})
    v = ring.monomial({"x1": 2, "x2": 1})
    w = multiply_monomials(u, v, ring)
    assert degree(w, ring) == 3 + 2 + 2
    assert degree(ring.zero_monomial(), ring) is None


# -- validation --------------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_modulus_must_be_prime(p):
    with pytest.raises(AlgebraError, match="prime"):
        RingPresentation(p, [("x", 1, 2)])


def _trial_division(n):
    """Reference primality test: slow, plainly right."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division_below_10_5():
    for n in range(10**5):
        assert _is_prime(n) == _trial_division(n), n


def test_is_prime_agrees_with_trial_division_on_random_32_bit_numbers():
    rng = random.Random(20261018)
    numbers = [rng.getrandbits(32) for _ in range(300)]
    numbers += [rng.getrandbits(32) | 1 for _ in range(300)]
    for n in numbers:
        assert _is_prime(n) == _trial_division(n), n


def test_is_prime_on_large_known_cases():
    assert _is_prime(2**61 - 1)
    assert _is_prime(2**64 - 59)  # the largest prime below 2^64
    assert _is_prime(100000000000000003)
    assert not _is_prime(1000000007 * 1000000009)
    # a strong pseudoprime to every base up to 23
    assert not _is_prime(3825123056546413051)


def test_large_prime_modulus_is_accepted():
    ring = RingPresentation(2**61 - 1, [("x", 1, 2)])
    assert ring.p == 2**61 - 1


@pytest.mark.parametrize("p", [2**64, 2**64 + 13, 10**40])
def test_modulus_from_2_to_the_64_is_too_large(p):
    with pytest.raises(AlgebraError) as info:
        RingPresentation(p, [("x", 1, 2)])
    assert str(info.value) == (
        f"modulus is too large ({p.bit_length()} bits; "
        "primes below 2^64 are supported)"
    )


def test_composite_modulus_message_names_the_modulus():
    with pytest.raises(AlgebraError) as info:
        RingPresentation(1000001, [("x", 1, 2)])
    assert str(info.value) == "modulus must be a prime >= 2 (got 1000001)"


@pytest.mark.parametrize(
    "p, gens, subs, message",
    [
        # a generator's own checks come before any relation's
        (2, [("x", 2), ("y", 0)], {"x": (2, 1, (("z", 1),))}, "'y' must have degree"),
        # a relation's checks come before a generator that is not nilpotent
        (2, [("a", 2), ("x", 2, 3)], {"x": (2, 1, (("z", 1),))}, "'z' is not a gen"),
        # of two truncation problems, the first generator's, a zero relation's
        # in its generator's place
        (3, [("a", 1), ("b", 2)], {"a": (3, 0, ())}, "'a' over Z/3 squares"),
        (3, [("a", 2), ("b", 1)], {"b": (3, 0, ())}, "'a' has neither"),
        (3, [("a", 2), ("b", 1, 3)], {"a": (2, 1, (("c", 1),))}, "'c' is not a gen"),
    ],
)
def test_ring_errors_come_in_a_fixed_order(p, gens, subs, message):
    subs = {name: Substitution(*sub) for name, sub in subs.items()}
    with pytest.raises(AlgebraError, match=message):
        RingPresentation(p, gens, subs)


def test_duplicate_generator_names_rejected():
    with pytest.raises(AlgebraError, match="duplicate"):
        RingPresentation(2, [("x", 1, 2), ("x", 3, 2)])
    with pytest.raises(AlgebraError, match="^generator name must be nonempty$"):
        RingPresentation(2, [("", 1, 2)])


def test_degree_and_trunc_and_weight_bounds():
    with pytest.raises(AlgebraError, match="degree"):
        RingPresentation(2, [("x", 0, 2)])
    with pytest.raises(AlgebraError, match="truncation"):
        RingPresentation(2, [("x", 1, 1)])
    with pytest.raises(AlgebraError, match="weight"):
        RingPresentation(2, [("x", 1, 2, 0)])


def test_substitution_must_target_later_generators():
    with pytest.raises(AlgebraError, match="strictly after"):
        RingPresentation(
            2,
            [("x1", 1), ("x2", 2, 2)],
            substitutions={"x2": Substitution(2, 1, (("x1", 4),))},
        )
    with pytest.raises(AlgebraError, match="strictly after"):
        RingPresentation(
            2, [("x1", 1)], substitutions={"x1": Substitution(2, 1, (("x1", 2),))}
        )


def test_substitution_must_be_homogeneous():
    with pytest.raises(AlgebraError, match="homogeneous"):
        RingPresentation(
            2,
            [("x1", 1), ("x2", 3, 2)],
            substitutions={"x1": Substitution(2, 1, (("x2", 1),))},
        )
    # a nonzero constant target has degree 0
    with pytest.raises(AlgebraError, match="not degree-homogeneous$"):
        RingPresentation(
            2, [("x1", 1), ("x2", 3, 2)], substitutions={"x1": Substitution(2, 1, ())}
        )


def test_generator_cannot_carry_two_rules():
    with pytest.raises(AlgebraError, match="both"):
        RingPresentation(
            2,
            [("x1", 1, 4), ("x2", 2, 2)],
            substitutions={"x1": Substitution(2, 1, (("x2", 1),))},
        )
    # a zero relation is a truncation too
    with pytest.raises(AlgebraError, match="'x1' has both a truncation and a relation$"):
        RingPresentation(2, [("x1", 1, 4)], substitutions={"x1": Substitution(2, 0, ())})


def test_substitution_exponents_are_checked():
    with pytest.raises(AlgebraError, match="^substitution exponent on 'x1' must be >= 2$"):
        RingPresentation(
            2,
            [("x1", 2), ("x2", 2, 2)],
            substitutions={"x1": Substitution(1, 1, (("x2", 1),))},
        )
    with pytest.raises(AlgebraError, match="^substitution target exponents must be >= 1$"):
        RingPresentation(
            2,
            [("x1", 1), ("x2", 2, 2)],
            substitutions={"x1": Substitution(2, 1, (("x2", 0),))},
        )


def test_odd_prime_rejects_inconsistent_odd_generators():
    with pytest.raises(AlgebraError, match="squares to zero"):
        RingPresentation(3, [("y", 3, 4)])
    with pytest.raises(AlgebraError, match="squares to zero"):
        RingPresentation(
            3,
            [("y", 3), ("z", 6, 2)],
            substitutions={"y": Substitution(2, 1, (("z", 1),))},
        )


def test_unknown_substitution_names_rejected():
    with pytest.raises(AlgebraError, match="unknown generator"):
        RingPresentation(
            2, [("x", 1, 2)], substitutions={"q": Substitution(2, 1, ())}
        )
    with pytest.raises(AlgebraError, match="not a generator"):
        RingPresentation(
            2, [("x", 1)], substitutions={"x": Substitution(2, 1, (("q", 1),))}
        )


def test_ring_lookups_refuse_what_the_ring_does_not_have():
    ring = sub_ring()
    with pytest.raises(AlgebraError, match="^unknown generator 'nope'$"):
        ring.index("nope")
    with pytest.raises(AlgebraError, match="^exponents must be non-negative$"):
        ring.monomial({"x1": -1})
    with pytest.raises(AlgebraError, match="^monomial has wrong exponent vector length$"):
        normal_form(Monomial(1, (1,)), ring)


def test_non_nilpotent_presentation_is_reported():
    # a polynomial generator is refused when the ring is built
    with pytest.raises(AlgebraError) as info:
        RingPresentation(2, [("x", 2)])
    assert str(info.value) == (
        "generator 'x' has neither a truncation nor a relation; "
        "it is not nilpotent, so the algebra is not finite-dimensional"
    )


def test_nilpotency_order_matches_a_linear_scan():
    rng = random.Random(4242)
    rings = [random_presentation(rng) for _ in range(80)]
    for p in (2, 3, 5):
        for _ in range(5):
            exponents = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
            rings.append(substitution_chain(p, exponents, rng.randint(2, 5)))
    for ring in rings:
        orders = ring.nilpotency_orders()
        for g, order in zip(ring.generators, orders):
            expected = linear_nilpotency_order(g.name, ring, 4096)
            assert nilpotency_order(g.name, ring) == order == expected, (repr(ring), g)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_inputs():
    """perfbench/inputs.py, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("bench_inputs", PERFBENCH / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_a_rule_onto_capped_targets_has_its_order_in_closed_form():
    """x^t = c * prod y_j^a_j with no y_j ruled: the constructor's order
    t * min ceil(cap_j / a_j) is the bisection's, on every such rule of the
    corpus, of ring-scaling's cases (seed 1) and of 40 large catalogs."""
    inputs = _benchmark_inputs()
    answers = json.loads((PERFBENCH / "reference" / "random_rings.json").read_text())
    docs = parse_sources(read_sources())
    docs += [parse(case.text) for case in inputs.ring_suite(1, answers)]
    for index in range(40):
        docs += [parse(text) for text in inputs.large_catalog(99, index).files.values()]
    closed = 0
    for doc in docs:
        for decl in doc.declarations:
            if decl.kind != "ring":
                continue
            ring = decl.presentation
            orders = ring.nilpotency_orders()
            for factor in ring.factors:
                for g, sub in zip(factor.gens, factor.subs):
                    if sub is not None and all(factor.subs[j] is None for j, _ in sub[1]):
                        closed += 1
                        name = ring.generators[g].name
                        assert orders[g] == nilpotency_order(name, ring), (decl.name, name)
    assert closed == 1258


def test_a_generator_without_a_rule_vanishes_at_its_cap(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _truncates(*args)

    monkeypatch.setattr(algebra, "_truncates", counted)
    ring = RingPresentation(2, [("x", 2, 3 * 10**6), ("y", 4, 2)])
    assert [nilpotency_order(g, ring) for g in ("x", "y")] == [3 * 10**6, 2]
    assert calls == []


def test_factors_are_the_components_of_the_substitution_graph():
    rng = random.Random(20261019)
    for _ in range(100):
        ring = random_presentation(rng)
        factors = ring.factors
        assert sorted(g for f in factors for g in f.gens) == list(range(ring.ngens))
        assert [f.gens[0] for f in factors] == sorted(f.gens[0] for f in factors)
        edges = {}
        for f in factors:
            assert list(f.gens) == sorted(f.gens)
            for k, g in enumerate(f.gens):
                name, _, trunc, _ = ring.generators[g]
                sub = ring.substitutions.get(name)
                assert (f.subs[k] is None) == (sub is None)
                # these rings declare every truncation, the forced ones too
                assert f.caps[k] == (trunc if sub is None else None)
                if sub is not None:
                    targets = {(ring.index(t), e) for t, e in sub.powers}
                    assert f.subs[k][0] == sub.exponent
                    assert {(f.gens[j], a) for j, a in f.subs[k][1]} == targets
                    assert f.subs[k][2] == sub.coeff
                    for j, _ in f.subs[k][1]:
                        edges.setdefault(k, set()).add(j)
                        edges.setdefault(j, set()).add(k)
            # connected: every local generator is reached from the first
            reached, todo = {0}, [0]
            while todo:
                for j in edges.get(todo.pop(), ()):
                    if j not in reached:
                        reached.add(j)
                        todo.append(j)
            assert reached == set(range(len(f.gens))), repr(ring)
            edges.clear()


def test_substitution_chain_order_is_the_product():
    ring = substitution_chain(3, [2, 3, 2], 5)
    assert nilpotency_order("x0", ring) == 2 * 3 * 2 * 5
    assert ring.nilpotency_orders() == (60, 30, 10, 5)


def test_top_degree_is_the_highest_nonzero_normal_form():
    # Entry k of a factor's top degrees is reached by the normal form with
    # every e_j = r_j - 1 for j >= k, and no nonzero product lies above it.
    rng = random.Random(20261019)
    for _ in range(100):
        ring = random_presentation(rng)
        orders = ring.nilpotency_orders()
        assert len(ring.top_degrees()) == len(ring.factors)
        for factor, below in zip(ring.factors, ring.top_degrees()):
            assert len(below) == len(factor.gens) + 1 and below[-1] == 0
            for k, (g, sub, cap) in enumerate(zip(factor.gens, factor.subs, factor.caps)):
                r = cap if sub is None else sub[0]
                assert below[k] - below[k + 1] == ring.generators[g].degree * (r - 1)
            exps = [0] * ring.ngens
            for g, sub, cap in zip(factor.gens, factor.subs, factor.caps):
                exps[g] = (cap if sub is None else sub[0]) - 1
            m = Monomial(1, tuple(exps))
            assert normal_form(m, ring) == m and degree(m, ring) == below[0]
            for _ in range(10):
                exps = [0] * ring.ngens
                for g in factor.gens:
                    exps[g] = rng.randint(0, orders[g] - 1)
                m = normal_form(Monomial(1, tuple(exps)), ring)
                assert m.is_zero() or degree(m, ring) <= below[0], repr(ring)


def _rewrite(exps, ring, start):
    """The rewrite of a whole-ring exponent vector from index start on, one
    tensor factor at a time: True when a truncation fires in some factor."""
    zero = False
    for factor in ring.factors:
        local = [exps[g] for g in factor.gens]
        at = bisect_left(factor.gens, start)
        zero |= _truncates(local, factor.subs, factor.caps, at)
        for g, e in zip(factor.gens, local):
            exps[g] = e
    return zero


def test_exponent_rewrite_vanishes_exactly_when_the_normal_form_does():
    # Over a prime field every coefficient met while rewriting is a unit, so
    # the exponents alone decide zero.  A unit coefficient of the input must
    # not change that, and a surviving vector must be the normal form's.
    rng = random.Random(20261018)
    seen = set()
    for _ in range(120):
        ring = random_presentation(rng)
        orders = ring.nilpotency_orders()
        for _ in range(25):
            exps = [rng.randint(0, k + 1) for k in orders]
            m = normal_form(Monomial(rng.randint(1, ring.p - 1), tuple(exps)), ring)
            seen.add((ring.p, bool(ring.substitutions), m.is_zero()))
            assert _rewrite(exps, ring, 0) == m.is_zero(), repr(ring)
            if not m.is_zero():
                assert tuple(exps) == m.exps
                # The search's step: a normal form times x_i^e, rewritten
                # from index i on.
                i = rng.randrange(ring.ngens)
                exps[i] += rng.randint(1, orders[i])
                m = normal_form(Monomial(1, tuple(exps)), ring)
                assert _rewrite(exps, ring, i) == m.is_zero(), repr(ring)
                assert m.is_zero() or tuple(exps) == m.exps
    assert seen >= {(p, s, z) for p in (2, 3, 5) for s in (False, True) for z in (False, True)}


# -- equality, which the solver's search caches key on -------------------------


def _pu_like(name="R", coeff=1, trunc=3):
    subs = {"x": Substitution(2, coeff, (("y", 1),))}
    return RingPresentation(3, [("x", 2), ("y", 4, trunc)], substitutions=subs, name=name)


def test_presentations_that_differ_only_in_name_are_equal():
    a, b = _pu_like(name="A"), _pu_like(name="B")
    assert a == b and hash(a) == hash(b)
    # coefficients are residues: 4 is 1 mod 3
    assert _pu_like(coeff=4) == a and hash(_pu_like(coeff=4)) == hash(a)


def test_presentations_differing_in_one_rule_are_unequal():
    a = _pu_like()
    assert a != _pu_like(coeff=2)
    assert a != _pu_like(trunc=2)


# -- ring laws on random data ------------------------------------------------

_LAW_RINGS = [
    exterior(2, 1, 3),
    sub_ring(),
    RingPresentation(3, [("x1", 1, 2), ("a", 2, 3), ("x3", 3, 2)], name="mixed3"),
    RingPresentation(5, [("x1", 1, 2), ("a", 2, 5), ("x3", 3, 2)], name="mixed5"),
]


def _monomials(ring):
    bound = [nilpotency_order(g.name, ring) for g in ring.generators]
    vectors = st.tuples(*(st.integers(0, b) for b in bound))
    coeffs = st.integers(0, ring.p - 1)
    return st.builds(Monomial, coeffs, vectors)


@pytest.mark.parametrize("ring", _LAW_RINGS, ids=lambda r: r.name)
def test_monomial_commutation_sign(ring):
    @settings(max_examples=120, deadline=None)
    @given(u=_monomials(ring), v=_monomials(ring))
    def law(u, v):
        uv = multiply_monomials(u, v, ring)
        vu = multiply_monomials(v, u, ring)
        du, dv = degree(u, ring), degree(v, ring)
        if du is None or dv is None:
            assert uv.is_zero() and vu.is_zero()
            return
        sign = -1 if (du % 2 and dv % 2) else 1
        assert vu == normal_form(Monomial(sign * uv.coeff, uv.exps), ring)

    law()


@pytest.mark.parametrize("ring", _LAW_RINGS, ids=lambda r: r.name)
def test_normal_form_is_idempotent(ring):
    @settings(max_examples=120, deadline=None)
    @given(m=_monomials(ring))
    def law(m):
        nm = normal_form(m, ring)
        assert normal_form(nm, ring) == nm

    law()
