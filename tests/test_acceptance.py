"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; pytest -v shows one
PASSED/FAILED line per criterion either way.  Everything here runs against
the shipped corpus with fixed seeds, exact integer comparisons throughout.
"""

import random
from pathlib import Path

import pytest

from catbound.algebra import (
    Monomial,
    RingPresentation,
    Substitution,
    multiply_monomials,
    nilpotency_order,
    normal_form,
)
from catbound.cli import render_table
from catbound.cones import BoundRefused, general_bundle_bound, main_theorem_bound
from catbound.corpus import load_corpus
from catbound.cup import (
    cup_bruteforce_oracle,
    cup_length,
    space_weights,
    weighted_wgt_lower,
)
from catbound.solver import ganea_check, propagate
from reference_search import degree

DETERMINED_CAT = {
    "SU(2)": 1, "SU(3)": 2, "SU(4)": 3, "SU(5)": 4,
    "PU(2)": 3, "PU(3)": 6, "PU(4)": 9, "PU(5)": 12,
    "SO(3)": 3, "SO(5)": 8, "SO(6)": 9, "SO(7)": 11, "SO(8)": 12, "SO(9)": 20,
    "PO(8)": 18,
    "Sp(1)": 1, "Sp(2)": 3, "Sp(3)": 5,
    "G2": 4,
    "Spin(3)": 1, "Spin(5)": 3, "Spin(6)": 3, "Spin(7)": 5, "Spin(8)": 6,
    "PSp(1)": 3, "PSp(2)": 8,
}

OPEN_CELLS = (
    "Spin(9)", "Sp(4)", "PSp(3)", "PSp(4)", "PO(6)", "Ss(8)",
    "F4", "E6", "E7", "E8", "SU(6)",
)


@pytest.fixture(scope="module")
def catalog():
    return load_corpus()


@pytest.fixture(scope="module")
def solution(catalog):
    return propagate(catalog)


def test_criterion_1_table_reproduction(solution):
    for name, value in DETERMINED_CAT.items():
        iv = solution.interval(name, "cat")
        assert iv.determined and iv.lower == value, (name, str(iv), value)
    for name in OPEN_CELLS:
        if name in solution.states:
            assert not solution.interval(name, "cat").determined, name
    expected = (Path(__file__).parent / "golden" / "table.txt").read_text()
    assert render_table(solution) + "\n" == expected
    print(f"PASS criterion 1: table reproduces all {len(DETERMINED_CAT)} "
          "recorded categories and leaves the open cells open")


def test_criterion_2_cup_length_engine(catalog):
    rotation = {
        "SO5_mod2": 8,
        "SO6_mod2": 9,
        "SO7_mod2": 11,
        "SO8_mod2": 12,
        "SO9_mod2": 20,
    }
    for name, value in rotation.items():
        assert cup_length(catalog.rings[name]).value == value, name
    for n in range(2, 9):
        ring = RingPresentation(
            2, [(f"x{2 * i + 1}", 2 * i + 1, 2) for i in range(1, n)]
        )
        assert cup_length(ring).value == n - 1, n
    print("PASS criterion 2: rotation-family cup-lengths 8/9/11/12/20 and "
          "exterior algebras up to 7 generators")


def test_criterion_3_weight_lower_bound(catalog):
    quotients = {
        "PU(2)": 3,    # 3(2-1)
        "PU(3)": 6,    # 3(3-1)
        "PU(4)": 9,    # 3(4-1)
        "SU(4)/C2": 9,
        "PU(5)": 12,   # 3(5-1)
    }
    for space, value in quotients.items():
        info = catalog.spaces[space]
        assert info.loopspace_even
        weights = space_weights(info.ring, info.loopspace_even)
        assert weighted_wgt_lower(info.ring, weights).value == value, space
    print("PASS criterion 3: evenness-weighted bounds equal 3(p^r - 1) on "
          "all five central quotients")


def test_criterion_4_stagewise_bound_arithmetic(catalog):
    bounds = {
        "so5": 8,
        "so6": 9,
        "so7": 11,
        "so9": 20,
        "po8": 18,
        "pu2": 3,
        "pu3": 6,
        "pu4": 9,
        "su4c2": 9,
        "pu5": 12,
    }
    for name, value in bounds.items():
        assert main_theorem_bound(catalog.bundles[name]) == value, name
    print("PASS criterion 4: certified stagewise bounds 8/9/11/20/18 and "
          "3(n-1) for the quotient family")


def _random_presentation(rng: random.Random) -> RingPresentation:
    p = rng.choice([2, 3, 5])
    gens = []
    budget = 12
    for i in range(rng.randint(1, 3)):
        d = rng.randint(1, 4)
        trunc = 2 if (p != 2 and d % 2) else rng.randint(2, 5)
        if d * (trunc - 1) > budget:
            continue
        budget -= d * (trunc - 1)
        gens.append((f"g{i}", d, trunc))
    if not gens:
        gens = [("g0", 1, 2)]
    return RingPresentation(p, gens, name=f"random-{p}")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(0xCA7B0)
    checked = 0
    while checked < 200:
        ring = _random_presentation(rng)
        assert cup_length(ring).value == cup_bruteforce_oracle(ring), repr(ring)
        checked += 1
    print(f"PASS criterion 5: search agrees with the brute-force oracle on "
          f"{checked} random presentations")


_KERNEL_RINGS = {
    2: RingPresentation(
        2,
        [("x1", 1), ("x2", 2, 4), ("x3", 3, 2)],
        substitutions={"x1": Substitution(2, 1, (("x2", 1),))},
        name="kernel2",
    ),
    3: RingPresentation(
        3,
        [("x1", 1, 2), ("a", 2, None), ("b", 3, 2), ("c", 3, 2)],
        substitutions={"a": Substitution(3, 1, (("b", 1), ("c", 1)))},
        name="kernel3",
    ),
    5: RingPresentation(
        5, [("x1", 1, 2), ("a", 2, 5), ("x3", 3, 2)], name="kernel5"
    ),
}


def test_criterion_6_algebra_kernel_laws():
    for p, ring in _KERNEL_RINGS.items():
        rng = random.Random(1000 + p)
        bounds = [nilpotency_order(g.name, ring) for g in ring.generators]

        def draw():
            return Monomial(
                rng.randrange(ring.p),
                tuple(rng.randint(0, b) for b in bounds),
            )

        for _ in range(1000):
            u, v, w = draw(), draw(), draw()
            # associativity
            assert multiply_monomials(
                multiply_monomials(u, v, ring), w, ring
            ) == multiply_monomials(u, multiply_monomials(v, w, ring), ring)
            # graded commutativity on the pair (u, v)
            uv = multiply_monomials(u, v, ring)
            vu = multiply_monomials(v, u, ring)
            du, dv = degree(u, ring), degree(v, ring)
            if du is None or dv is None:
                assert uv.is_zero() and vu.is_zero()
            else:
                sign = -1 if (du % 2 and dv % 2) else 1
                assert vu == normal_form(Monomial(sign * uv.coeff, uv.exps), ring)
            # normal-form idempotence
            nf = normal_form(u, ring)
            assert normal_form(nf, ring) == nf
    print("PASS criterion 6: kernel laws hold on 1000 random monomial "
          "pairs/triples for each of p = 2, 3, 5")


def test_criterion_7_solver_confluence(catalog, solution):
    def snapshot(sol):
        return (
            {
                name: {inv: str(iv) for inv, iv in state.intervals.items()}
                for name, state in sol.states.items()
            },
            sol.provenance,
            sol.contradictions,
        )

    reference = snapshot(solution)
    for seed in range(50):
        assert snapshot(propagate(catalog, rule_seed=seed)) == reference, seed
    print("PASS criterion 7: 50 rule-order permutations reach the same "
          "fixpoint, provenance included")


def test_criterion_8_ganea_status(solution):
    for name in DETERMINED_CAT:
        result = ganea_check(solution, name)
        assert result.status == "holds", (name, result)
    print(f"PASS criterion 8: the stabilization check holds for all "
          f"{len(DETERMINED_CAT)} determined spaces")


def test_criterion_9_negative_control(catalog, solution):
    bundle = catalog.bundles["sp2-d4"]
    assert bundle.d == 4
    with pytest.raises(BoundRefused):
        main_theorem_bound(bundle)
    fiber_cat = solution.interval("Sp(1)", "cat").upper
    base_cat = solution.interval("S7", "cat").upper
    assert general_bundle_bound(fiber_cat, base_cat) == 3
    print("PASS criterion 9: the d=4 record is refused while the "
          "certificate-free bound stays finite")
