import random

import pytest
from reference_solver import reference_propagate

from catbound import solver
from catbound.catalog import link
from catbound.cli import render_table, solution_json
from catbound.cones import check_compatibility
from catbound.corpus import load_corpus
from catbound.cup import space_weights, weighted_wgt_lower
from catbound.dsl import KnownFact, SourceDocument, SpaceDecl, parse
from catbound.solver import Interval, Provenance, ganea_check, propagate


@pytest.fixture(scope="module")
def corpus_solution():
    return propagate(load_corpus())


def doc(text):
    d = parse(text)
    assert not d.diagnostics, [str(x) for x in d.diagnostics]
    return d


# -- interval plumbing ----------------------------------------------------------


def test_interval_reading():
    assert str(Interval(8, 8)) == "8"
    assert str(Interval(4, 6)) == "[4,6]"
    assert str(Interval(3, None)) == "[3,inf]"
    assert Interval(8, 8).determined
    iv = Interval()
    assert iv.cut_upper(9) and not iv.cut_upper(9)
    assert iv.cut_upper(5)


# -- closing the corpus ----------------------------------------------------------


def test_rotation_group_closes_to_a_point(corpus_solution):
    for inv in ("cup", "sigmacat", "cat", "Cat"):
        iv = corpus_solution.interval("SO(6)", inv)
        assert (iv.lower, iv.upper) == (9, 9), inv


def test_quotient_group_keeps_a_cup_gap(corpus_solution):
    s = corpus_solution
    assert s.interval("PU(3)", "cup").lower == 4
    assert s.interval("PU(3)", "cup").upper == 6
    for inv in ("sigmacat", "cat", "Cat"):
        assert s.interval("PU(3)", inv).determined
        assert s.interval("PU(3)", inv).lower == 6


def test_product_statement_caps_the_even_rotation_group(corpus_solution):
    iv = corpus_solution.interval("SO(8)", "cat")
    assert (iv.lower, iv.upper) == (12, 12)
    entries = corpus_solution.provenance["SO(8)"]
    upper = next(
        e for e in entries if e.invariant == "cat" and e.side == "upper"
    )
    assert upper.rule == "product"
    assert "SO(7) x S7" in upper.detail


def test_symplectic_Cat_is_pinned_by_the_sparse_bundle(corpus_solution):
    iv = corpus_solution.interval("Sp(2)", "Cat")
    assert (iv.lower, iv.upper) == (3, 3)
    upper = next(
        e
        for e in corpus_solution.provenance["Sp(2)"]
        if e.invariant == "Cat" and e.side == "upper"
    )
    assert upper.rule == "cone-bundle"
    assert "7//3" in upper.detail


def test_recorded_fact_carries_its_citation(corpus_solution):
    entries = corpus_solution.provenance["Sp(2)"]
    cats = [e for e in entries if e.invariant == "cat"]
    assert cats and all(e.rule == "recorded-fact" for e in cats)
    assert all("Schweitzer" in e.detail for e in cats)


def test_wcat_interval_only_exists_when_recorded(corpus_solution):
    assert "wcat" in corpus_solution.states["Sp(3)"].intervals
    wcat = corpus_solution.interval("Sp(3)", "wcat")
    assert (wcat.lower, wcat.upper) == (5, None)
    assert "wcat" not in corpus_solution.states["SO(5)"].intervals


def test_no_contradictions_in_the_shipped_corpus(corpus_solution):
    assert corpus_solution.contradictions == []


def test_lens_spaces_only_get_the_dimension_bound(corpus_solution):
    iv = corpus_solution.interval("L7(2)", "cat")
    assert (iv.lower, iv.upper) == (0, 7)
    cat_upper = next(
        e
        for e in corpus_solution.provenance["L7(2)"]
        if e.invariant == "Cat" and e.side == "upper"
    )
    assert cat_upper.rule == "dimension"


# -- rule-by-rule behaviour on small synthetic catalogs ---------------------------


def test_incomplete_ring_gives_no_upper_bound():
    catalog = link(
        [
            doc(
                """
                ring R over Z/2 { gen x : deg 1 trunc 4; }
                space X { dim 3; cohomology R over Z/2; }
                space Y { dim 3; cohomology R over Z/2 complete; }
                """
            )
        ]
    )
    s = propagate(catalog)
    assert (s.interval("X", "cup").lower, s.interval("X", "cup").upper) == (3, 3)
    assert s.interval("Y", "cup").upper == 3
    # X's cup upper comes through the chain from dim, not from the ring
    x_upper = next(
        e
        for e in s.provenance["X"]
        if e.invariant == "cup" and e.side == "upper"
    )
    assert x_upper.rule == "chain"
    y_upper = next(
        e
        for e in s.provenance["Y"]
        if e.invariant == "cup" and e.side == "upper"
    )
    assert y_upper.rule == "ring-cup"


def test_chain_moves_lower_bounds_up_and_upper_bounds_down():
    catalog = link(
        [
            doc(
                """
                space X {
                  dim 9;
                  known lower cup = 4 from "somewhere";
                  known upper Cat = 5 from "elsewhere";
                }
                """
            )
        ]
    )
    s = propagate(catalog)
    assert s.interval("X", "Cat").lower == 4
    assert s.interval("X", "cat").upper == 5
    assert s.interval("X", "cup").upper == 5
    assert s.interval("X", "sigmacat").lower == 4


def test_fiber_base_rule_fires_only_without_a_certificate():
    base = """
        space F {{ dim 3; known cat = 1 from "sphere"; }}
        space B {{ dim 7; known cat = 1 from "sphere-like"; }}
        space T {{ dim 10; }}
        bundle b {{
          fiber F; base B; total T; structure-group F;
          cells-mod 1 0;
          {cert}
        }}
    """
    certified = propagate(link([doc(base.format(cert="compatibility verified \"checked\";"))]))
    # F has no recorded decomposition, so even the certified bound refuses
    # and the factorwise fallback is all that remains.
    assert certified.interval("T", "cat").upper == 3
    uncertified = propagate(link([doc(base.format(cert=""))]))
    assert uncertified.interval("T", "cat").upper == 3
    upper = next(
        e
        for e in uncertified.provenance["T"]
        if e.invariant == "cat" and e.side == "upper"
    )
    assert upper.rule == "fiber-base"
    assert "(1+1)(1+1)-1" in upper.detail


def test_certified_bundle_beats_the_factorwise_fallback():
    catalog = link(
        [
            doc(
                """
                space F {
                  dim 3;
                  stage 1 dim 3 skeleton "cell";
                  known cat = 1 from "sphere";
                }
                space B { dim 7; known cat = 7 from "worst case"; }
                space T { dim 10; }
                bundle b {
                  fiber F; base B; total T; structure-group F;
                  cells-mod 1 0;
                  compatibility skeletal;
                }
                """
            )
        ]
    )
    s = propagate(catalog)
    # certified: 1 + 7 = 8; fallback would give (1+1)(7+1)-1 = 15
    assert s.interval("T", "Cat").upper == 8
    assert s.interval("T", "cat").upper == 8


def test_contradictory_facts_are_reported_once_per_space():
    catalog = link(
        [
            doc(
                """
                space X {
                  dim 5;
                  known cat = 4 from "one source";
                  known upper cat = 3 from "another";
                }
                space Y { dim 2; known cat = 2 from "fine"; }
                """
            )
        ]
    )
    s = propagate(catalog)
    assert len(s.contradictions) == 1
    c = s.contradictions[0]
    assert (c.space, c.invariant) == ("X", "cat")
    assert c.lower.value == 4 and c.upper.value == 3
    assert c.lower.rule == "recorded-fact" and c.upper.rule == "recorded-fact"
    assert "one source" in c.lower.detail and "another" in c.upper.detail
    # the other space still closes
    assert s.interval("Y", "cat").determined
    assert ganea_check(s, "X").status == "unknown"


def test_fixpoint_does_not_depend_on_rule_order(corpus_solution):
    catalog = load_corpus()
    baseline = {
        name: {inv: str(iv) for inv, iv in state.intervals.items()}
        for name, state in corpus_solution.states.items()
    }
    for seed in (0, 1, 7, 42):
        other = propagate(catalog, rule_seed=seed)
        got = {
            name: {inv: str(iv) for inv, iv in state.intervals.items()}
            for name, state in other.states.items()
        }
        assert got == baseline
        assert other.provenance == corpus_solution.provenance
        assert other.contradictions == corpus_solution.contradictions


def test_extra_facts_only_tighten(corpus_solution):
    docs = [doc('known lower RP7 cat = 3 from "extra input";')]
    from catbound.corpus import parse_sources, read_sources

    base_docs = parse_sources(read_sources())
    tightened = propagate(link(base_docs + docs))
    for name, state in corpus_solution.states.items():
        for inv, iv in state.intervals.items():
            new = tightened.interval(name, inv)
            assert new.lower >= iv.lower
            if iv.upper is not None:
                assert new.upper is not None and new.upper <= iv.upper


def test_a_crossed_wcat_interval_is_a_contradiction_not_a_crash():
    catalog = link(
        [
            doc(
                """
                space X {
                  dim 5;
                  known lower wcat = 4 from "one source";
                  known upper wcat = 3 from "another";
                }
                space Y {
                  dim 5;
                  known lower wcat = 4 from "one source";
                  known upper wcat = 3 from "another";
                  known cat = 4 from "fine";
                  known upper Cat = 3 from "too strong";
                }
                """
            )
        ]
    )
    s = propagate(catalog)
    assert [(c.space, c.invariant) for c in s.contradictions] == [
        ("X", "wcat"),
        ("Y", "cat"),
    ]
    x = s.contradictions[0]
    assert (x.lower.value, x.upper.value) == (4, 3)
    assert "one source" in x.lower.detail and "another" in x.upper.detail


def test_a_crossing_without_a_lower_bound_has_a_trivial_lower_side():
    # the parser refuses a negative value, so the document is built by hand
    document = SourceDocument(
        None,
        [SpaceDecl("X", (), (), dim=3), KnownFact("X", "cat", "upper", -1, "hand-built")],
        [],
    )
    s = propagate(link([document]))
    [c] = s.contradictions
    assert c.lower == Provenance("X", "cup", "lower", 0, "trivial", "")
    assert render_table(s).splitlines()[-1] == (
        "X: cup lower 0 (trivial: ) vs upper -1 (chain: sigmacat upper end)"
    )


# -- one definition per rule ---------------------------------------------------------


def test_each_bundle_is_certified_once_per_solve(monkeypatch):
    catalog = load_corpus()
    calls = []

    def counted(bundle):
        calls.append(bundle.name)
        return check_compatibility(bundle)

    monkeypatch.setattr(solver, "check_compatibility", counted)
    propagate(catalog)
    assert len(calls) == len(catalog.bundles) == 12
    assert sorted(calls) == sorted(catalog.bundles)


@pytest.mark.parametrize("rule_seed", [None, 3])
def test_static_rules_run_once_per_solve(monkeypatch, rule_seed):
    calls = {name: 0 for name, _ in solver._RULES}

    def counted(name, rule):
        def wrapper(*args):
            calls[name] += 1
            return rule(*args)

        return wrapper

    rows = tuple((name, counted(name, rule)) for name, rule in solver._RULES)
    monkeypatch.setattr(solver, "_RULES", rows)
    propagate(load_corpus(), rule_seed=rule_seed)
    assert calls == dict.fromkeys(calls, 1)


def test_the_corpus_settles_each_space_once(monkeypatch):
    catalog = load_corpus()
    close_chain = solver._close_chain
    calls = []

    def counted(chain):
        calls.append(chain)
        return close_chain(chain)

    monkeypatch.setattr(solver, "_close_chain", counted)
    propagate(catalog)
    assert len(calls) == len(catalog.spaces) == 37


# (worklist visits, (ring, weights) searches, bundle certifications) of one
# solve under rule seeds None, 1, 2 and 3, counted through the seams above:
# a faster solve must do exactly this work, not skip some of it.
SOLVE_WORK = {
    "corpus": [(37, 21, 12), (37, 21, 12), (37, 21, 12), (37, 21, 12)],
    0: [(12, 1, 1), (12, 1, 1), (12, 1, 1), (12, 1, 1)],
    1: [(7, 1, 3), (7, 1, 3), (7, 1, 3), (7, 1, 3)],
    2: [(13, 1, 1), (13, 1, 1), (13, 1, 1), (13, 1, 1)],
    3: [(8, 1, 2), (8, 1, 2), (8, 1, 2), (8, 1, 2)],
    4: [(8, 1, 2), (7, 1, 2), (8, 1, 2), (8, 1, 2)],
    5: [(10, 1, 2), (10, 1, 2), (10, 1, 2), (10, 1, 2)],
    6: [(13, 1, 2), (13, 1, 2), (13, 1, 2), (13, 1, 2)],
    7: [(9, 1, 4), (10, 1, 4), (9, 1, 4), (9, 1, 4)],
    8: [(8, 1, 3), (9, 1, 3), (9, 1, 3), (9, 1, 3)],
    9: [(9, 1, 0), (9, 1, 0), (9, 1, 0), (9, 1, 0)],
}


@pytest.mark.parametrize("source", SOLVE_WORK)
def test_the_solve_does_its_pinned_work(monkeypatch, source):
    if source == "corpus":
        catalog = load_corpus()
    else:
        catalog = link([doc(_generated_document(source))])
    counts = []

    def counted(fn, slot):
        def wrapper(*args, **kwargs):
            counts[-1][slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    for slot, seam in enumerate(("_close_chain", "weighted_wgt_lower", "check_compatibility")):
        monkeypatch.setattr(solver, seam, counted(getattr(solver, seam), slot))
    for rule_seed in (None, 1, 2, 3):
        counts.append([0, 0, 0])
        propagate(catalog, rule_seed=rule_seed)
    assert [tuple(c) for c in counts] == SOLVE_WORK[source]


def _reverse_chain(n):
    """Products P_i = P_{i-1} * S for i = 1..n, declared totals first."""
    decls = [f"space P{i} {{ dim {3 * (i + 1)}; }}" for i in range(n, -1, -1)]
    decls.append('space S { dim 3; known cat = 1 from "s"; }')
    decls += [f"product P{i} = P{i - 1} * S;" for i in range(n, 0, -1)]
    return "\n".join(decls)


def test_a_reverse_declared_chain_settles_once_per_space(monkeypatch):
    # in declaration order each total would be visited again at every change
    # of its factor: n(n+1)/2 visits
    catalog = link([doc(_reverse_chain(2000))])
    close_chain = solver._close_chain
    visits = []

    def counted(chain):
        visits[-1] += 1
        return close_chain(chain)

    monkeypatch.setattr(solver, "_close_chain", counted)
    for rule_seed in (None, 1, 2, 3):
        visits.append(0)
        solution = propagate(catalog, rule_seed=rule_seed)
        assert str(solution.interval("P2000", "cat")) == "[0,2003]"
    assert visits == [len(catalog.spaces)] * 4 == [2002] * 4


def _cat_upper(solution, name):
    return next(
        e
        for e in solution.provenance[name]
        if e.invariant == "Cat" and e.side == "upper"
    )


TIED_BUNDLES = """
space F {{ dim 3; stage 1 dim 3 skeleton "cell"; }}
space B {{ dim 6; connectivity 1; }}
space T {{ dim {total_dim}; }}
{bundles}
"""


def _tied_bundle(name):
    return (
        f"bundle {name} {{ fiber F; base B; total T; structure-group F; "
        "cells-mod 2 0; compatibility skeletal; }"
    )


def test_tied_bundles_credit_the_name_first():
    # zeta is declared first, but alpha comes first by name
    text = TIED_BUNDLES.format(
        total_dim=9,
        bundles=_tied_bundle("zeta") + "\n" + _tied_bundle("alpha"),
    )
    s = propagate(link([doc(text)]))
    entry = _cat_upper(s, "T")
    assert (entry.rule, entry.value) == ("cone-bundle", 4)
    assert entry.detail == "bundle alpha: 1 + 6//2"


def test_a_dimension_tie_is_credited_to_dimension():
    # the bundle gives 1 + 6//2 = 4, and so does dim T
    text = TIED_BUNDLES.format(total_dim=4, bundles=_tied_bundle("b"))
    s = propagate(link([doc(text)]))
    entry = _cat_upper(s, "T")
    assert (entry.rule, entry.value, entry.detail) == ("dimension", 4, "dim 4")


def test_corpus_provenance_justifies_every_interval_end(corpus_solution):
    for name, entries in corpus_solution.provenance.items():
        for e in entries:
            assert e.rule != "derived", e
            iv = corpus_solution.interval(name, e.invariant)
            assert e.value == (iv.lower if e.side == "lower" else iv.upper), e


# -- the full-pass solver as a reference -------------------------------------------


@pytest.mark.parametrize("rule_seed", [None, *range(10)])
def test_the_corpus_solves_as_the_reference(rule_seed):
    catalog = load_corpus()
    assert propagate(catalog, rule_seed=rule_seed) == reference_propagate(catalog)


def _generated_document(seed):
    """A small catalog with the shapes the settle must order: product chains
    declared total first, so a total is visited before its factors settle;
    bundles, certified and refused, between random spaces, cycles included;
    recorded facts on random invariants, crossings included.  A product or
    bundle whose total's dim exceeds its parts' together is left out, as
    the linker refuses it."""
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    names = [f"X{i}" for i in range(n)]
    decls = ["ring E over Z/2 { gen a : deg 1 exterior; gen b : deg 2 trunc 3; }"]
    with_dim = []
    dims = {}
    for name in names:
        stmts = []
        dim = dims[name] = None
        if rng.random() < 0.85:
            dim = dims[name] = rng.randint(2, 24)
            with_dim.append(name)
            stmts += [f"dim {dim};", f"connectivity {rng.randint(0, 2)};"]
            if rng.random() < 0.5:
                stmts.append(f'stage 1 dim {dim} skeleton "cell";')
        # E's top degree, 5, may not exceed the dim, and its degree-1
        # generator needs connectivity 0: H^k = 0 above the dim and up to
        # the connectivity
        if rng.random() < 0.3 and (dim is None or dim >= 5):
            stmts.append("cohomology E over Z/2;")
            if dim is not None:
                stmts[1] = "connectivity 0;"
        for _ in range(rng.randint(0, 2)):
            qualifier, low, high = rng.choice((("", 1, 8), ("lower ", 0, 6), ("upper ", 3, 14)))
            inv = rng.choice(("cup", "sigmacat", "cat", "Cat", "wcat"))
            stmts.append(f'known {qualifier}{inv} = {rng.randint(low, high)} from "f";')
        decls.append(f"space {name} {{ {' '.join(stmts)} }}")

    def fits(total, one, other):
        return None in (dims[total], dims[one], dims[other]) or (
            dims[total] <= dims[one] + dims[other]
        )

    for i in range(n - 1):
        if rng.random() < 0.6:
            right = rng.choice(names[i + 1:])
            if fits(names[i], names[i + 1], right):
                decls.append(f"product {names[i]} = {names[i + 1]} * {right};")
    for i in range(rng.randint(1, 4)):
        fiber, total = rng.choice(names), rng.choice(names)
        compatibility = rng.choice(("skeletal", "none", "trivial"))
        base = rng.choice(with_dim)
        if fits(total, fiber, base):
            decls.append(
                f"bundle b{i} {{ fiber {fiber}; base {base}; total {total}; "
                f"structure-group {fiber}; cells-mod 1 0; compatibility {compatibility}; }}"
            )
    return "\n".join(decls)


@pytest.mark.parametrize("seed", range(100))
def test_generated_catalogs_solve_as_the_reference(seed):
    catalog = link([doc(_generated_document(seed))])
    expected = reference_propagate(catalog)
    for rule_seed in (None, seed):
        assert propagate(catalog, rule_seed=rule_seed) == expected


CYCLES = {
    "mutually fibred refused bundles": """
        space A { dim 5; known upper cat = 2 from "a"; }
        space B { dim 4; known upper cat = 1 from "b"; }
        space C { dim 9; }
        bundle ab { fiber A; base B; total C; structure-group A; cells-mod 1 0; }
        bundle cb { fiber C; base B; total A; structure-group C; cells-mod 1 0; }
    """,
    "a product with itself as a factor": """
        space P { dim 8; }
        space Q { dim 3; known upper cat = 0 from "contractible"; }
        product P = P * Q;
    """,
    # all three bound cat T by 2: the credit goes to the first in canonical order
    "the total of two products and of a refused bundle": """
        space F { dim 3; known upper cat = 0 from "f"; }
        space B { dim 3; known upper cat = 2 from "b"; }
        space T { dim 6; }
        product T = F * B;
        product T = B * F;
        bundle fb { fiber F; base B; total T; structure-group F; cells-mod 1 0; }
    """,
    "a square": """
        space Q { dim 2; known upper Cat = 1 from "q"; }
        space A { dim 4; }
        product A = Q * Q;
    """,
    # over a contractible base (f+1)(0+1)-1 = f: each total's cat upper is
    # credited to the other's
    "a credit cycle through mutually fibred bundles": """
        space A { dim 5; }
        space B { dim 4; known upper cat = 0 from "contractible"; }
        space C { dim 5; }
        bundle ab { fiber A; base B; total C; structure-group A; cells-mod 1 0; }
        bundle cb { fiber C; base B; total A; structure-group C; cells-mod 1 0; }
    """,
}


@pytest.mark.parametrize("name", CYCLES)
def test_cycles_and_shared_totals_settle_as_the_reference(name):
    catalog = link([doc(CYCLES[name])])
    expected = reference_propagate(catalog)
    for rule_seed in (None, *range(10)):
        assert propagate(catalog, rule_seed=rule_seed) == expected


def test_a_tie_between_inflows_is_credited_in_canonical_order():
    s = propagate(link([doc(CYCLES["the total of two products and of a refused bundle"])]))
    entry = next(
        e for e in s.provenance["T"] if e.invariant == "cat" and e.side == "upper"
    )
    assert (entry.rule, entry.value, entry.detail) == ("product", 2, "B x F: 2 + 0")


# -- credit edges, and records built when read ------------------------------------


def test_product_and_chain_credits_name_the_ends_they_read(corpus_solution):
    inputs = corpus_solution.provenance.inputs
    assert _upper(corpus_solution, "SO(8)", "cat").rule == "product"
    for inv in ("cat", "Cat"):
        assert inputs("SO(8)", inv, "upper") == (("SO(7)", inv, "upper"), ("S7", inv, "upper"))
    # cup upper 12 comes down the chain; cup lower is the ring's, read off the catalog
    assert inputs("SO(8)", "cup", "upper") == (("SO(8)", "sigmacat", "upper"),)
    assert inputs("SO(8)", "cat", "lower") == (("SO(8)", "sigmacat", "lower"),)
    assert inputs("SO(8)", "cup", "lower") == ()
    with pytest.raises(KeyError):
        inputs("L7(2)", "cat", "lower")  # a lower end of 0 has no credit


def test_a_fiber_base_credit_names_the_fiber_and_base():
    s = propagate(link([doc(CYCLES["mutually fibred refused bundles"])]))
    assert _upper(s, "C", "cat").detail == "bundle ab: (2+1)(1+1)-1"
    read = s.provenance.inputs("C", "cat", "upper")
    assert read == (("A", "cat", "upper"), ("B", "cat", "upper"))


@pytest.mark.parametrize(
    "name, space, read",
    [
        ("a product with itself as a factor", "P", [("P", "cat", "upper")]),
        ("a credit cycle through mutually fibred bundles", "A", [("C", "cat", "upper")]),
        ("a credit cycle through mutually fibred bundles", "C", [("A", "cat", "upper")]),
    ],
)
def test_a_credit_cycle_is_recorded_and_not_followed(name, space, read):
    s = propagate(link([doc(CYCLES[name])]))
    # inputs takes one step: it lists the end that closes the cycle and returns
    assert set(read) <= set(s.provenance.inputs(space, "cat", "upper"))
    assert _upper(s, space, "cat").rule in ("product", "fiber-base")


def _upper(solution, name, invariant):
    return next(
        e for e in solution.provenance[name] if e.invariant == invariant and e.side == "upper"
    )


def test_the_report_builds_no_provenance_record(monkeypatch, corpus_solution):
    built = []

    def counted(cls, *fields):
        built.append(fields)
        return tuple.__new__(cls, fields)

    monkeypatch.setattr(Provenance, "__new__", counted)
    s = propagate(load_corpus())
    render_table(s)
    solution_json(s)
    assert s.contradictions == [] and built == []
    # reading a space's entries builds them, once
    assert s.provenance["SO(8)"] is s.provenance["SO(8)"]
    assert len(built) == 8 and s.provenance == corpus_solution.provenance


def test_provenance_is_a_read_only_mapping(corpus_solution):
    provenance = corpus_solution.provenance
    assert "SO(8)" in provenance and "Nope" not in provenance
    assert list(provenance) == sorted(corpus_solution.states) and len(provenance) == 37
    with pytest.raises(TypeError):
        provenance["SO(8)"] = []
    with pytest.raises(KeyError):
        provenance["Nope"]


# -- work done per ring ------------------------------------------------------------


UNIT_WEIGHTS = """
ring A over Z/2 { gen x1 : deg 1 trunc 8; gen x3 : deg 3 trunc 2; }
ring B over Z/3 { gen y1 : deg 1; gen y3 : deg 3; gen y5 : deg 5; }
ring C over Z/2 { gen z1 : deg 1; gen z2 : deg 2 trunc 4; rel z1^2 = z2; }
space X { dim 10; cohomology A over Z/2; }
space Y { dim 9; cohomology B over Z/3 complete; loopspace-even; }
space Z { dim 7; cohomology C over Z/2; }
"""


def _expected_searches(catalog):
    """{(ring, weights): (value, witness text)} for every search a solve
    needs: the cup search and the space's weighted search per space."""
    expected = {}
    for info in catalog.spaces.values():
        ring = info.ring
        if ring is not None:
            for weights in ((1,) * ring.ngens, space_weights(ring, info.loopspace_even)):
                result = weighted_wgt_lower(ring, weights)
                expected[ring, weights] = (
                    result.value, f"witness {result.witness_str(ring)}"
                )
    return expected


def _lower_entry(solution, name, invariant):
    return next(
        e
        for e in solution.provenance[name]
        if e.invariant == invariant and e.side == "lower"
    )


@pytest.mark.parametrize("source", ["corpus", "unit-weights"])
def test_one_search_per_ring_and_weights(monkeypatch, source):
    catalog = load_corpus() if source == "corpus" else link([doc(UNIT_WEIGHTS)])
    expected = _expected_searches(catalog)
    calls = []

    def counted(ring, weights=None, **kwargs):
        calls.append((ring, weights))
        return weighted_wgt_lower(ring, weights, **kwargs)

    monkeypatch.setattr(solver, "weighted_wgt_lower", counted)
    s = propagate(catalog)
    assert len(calls) == len(set(calls)) and set(calls) == set(expected)
    if source == "corpus":
        assert ("PU5_mod5", (1, 2, 1, 1, 1)) in {(r.name, ws) for r, ws in calls}
        pu5 = _lower_entry(s, "PU(5)", "sigmacat")
        assert (pu5.rule, pu5.value) == ("ring-weight", 12)
    else:
        # every weight is 1, so the weighted search is the cup search
        assert len(calls) == len(catalog.rings)
    # Each space credits its ring's searches, unless (on the corpus) another
    # rule reached the same end first.
    for name, info in catalog.spaces.items():
        if info.ring is None:
            continue
        for inv, rule, weights, prefix in (
            ("cup", "ring-cup", (1,) * info.ring.ngens, ""),
            ("sigmacat", "ring-weight", space_weights(info.ring, info.loopspace_even),
             "weighted "),
        ):
            value, witness = expected[info.ring, weights]
            entry = _lower_entry(s, name, inv)
            if source == "unit-weights" or entry.rule == rule:
                assert (entry.rule, entry.value, entry.detail) == (
                    rule, value, prefix + witness
                )


# -- the stabilization check ------------------------------------------------------


def test_ganea_routes(corpus_solution):
    so5 = ganea_check(corpus_solution, "SO(5)")
    assert (so5.status, so5.rule) == ("holds", "cup-equality")
    pu4 = ganea_check(corpus_solution, "PU(4)")
    assert (pu4.status, pu4.rule) == ("holds", "sigmacat-equality")
    rp7 = ganea_check(corpus_solution, "RP7")
    assert (rp7.status, rp7.rule) == ("unknown", None)


def test_ganea_never_fails(corpus_solution):
    for name in corpus_solution.states:
        assert ganea_check(corpus_solution, name).status in ("holds", "unknown")


class _CountedReads(list):
    def __iter__(self):
        self.reads = getattr(self, "reads", 0) + 1
        return super().__iter__()


def test_ganea_verdicts_look_up_the_contradicted_spaces():
    # 4000 contradicted spaces and 4000 determined ones: each verdict looks
    # its space up in the set the solve built, so the report stays linear.
    # K's cat is determined, and equals its sigmacat, but its cup crosses.
    n = 4000
    text = "\n".join(
        [f'space C{i} {{ dim 5; known cat = 4 from "a"; known upper cat = 3 from "b"; }}'
         for i in range(n)]
        + [f'space D{i} {{ dim 1; known cat = 1 from "d"; known cup = 1 from "d"; }}'
           for i in range(n)]
        + ['space K { dim 5; known cat = 2 from "k"; known lower cup = 2 from "k"; '
           'known upper cup = 1 from "k"; }']
    )
    s = propagate(link([doc(text)]))
    assert len(s.contradictions) == n + 1
    assert s.provenance.contradicted == {"K", *(f"C{i}" for i in range(n))}
    contradictions = _CountedReads(s.contradictions)
    data = solution_json(s._replace(contradictions=contradictions))
    assert contradictions.reads == 1  # the JSON's own list, and no verdict's scan
    verdicts = [(space["ganea"], space["ganea_rule"]) for space in data["spaces"].values()]
    assert verdicts.count(("holds", "cup-equality")) == n
    assert verdicts.count(("unknown", None)) == n + 1
    assert s.interval("K", "cat").determined and s.interval("K", "sigmacat").determined
    assert ganea_check(s, "K").status == "unknown"
