"""Metamorphic laws of the solver, on the shipped corpus and on the small
generated catalogs of `test_solver`, the last law on its cycles too.

- Deleting one recorded fact, bundle or product statement removes a
  candidate bound, and the rules are monotone, so no interval may narrow.
- Renaming every space and ring changes no bound and no credit: the JSON
  report is the original's with the names replaced, its contradictions in
  the order of the new names.  Only a product's detail text names spaces.
- Two disjoint renamed copies of a catalog, linked together, solve as each
  copy does alone: the same bounds, credits and contradictions, although
  the copies' equal rings share their searches.
- Adding a fact equal to an end of the solved interval changes no interval:
  the fixpoint already holds it.
- Shuffling the declarations, within and across documents, changes no
  bound and no credit, although the solver orders its visits from them.
- Every credit reads final ends: the ends that `inputs()` names for a
  product or fiber-base credit hold, in the solution, the two numbers of
  its detail, and the rule's bound of them is the credited value; a chain
  credit's neighbouring end equals its value.  The solver writes a space's
  credits on its last visit, after every space it reads has settled.

Apart from the laws, ground truth: on a generated catalog of spheres,
projective spaces, lens spaces and products of 2-spheres, whose cat and Cat
are known in closed form, every interval must contain the true value.
"""

import json
import random
import re

import pytest
from test_solver import CYCLES, _generated_document

from catbound.catalog import link
from catbound.cli import solution_json
from catbound.cones import general_bundle_bound, product_bound
from catbound.corpus import parse_sources, read_sources
from catbound.dsl import KnownFact, parse, ring_presentation
from catbound.solver import CHAIN, propagate

SOURCES = ["corpus", *range(50)]


def _documents(source):
    if source == "corpus":
        return parse_sources(read_sources())
    return [parse(_generated_document(source))]


def _deletions(catalog):
    """(what, catalog) for each catalog with one fact, bundle or product less."""
    for i, fact in enumerate(catalog.facts):
        yield fact, catalog._replace(facts=catalog.facts[:i] + catalog.facts[i + 1:])
    for name in catalog.bundles:
        bundles = {k: b for k, b in catalog.bundles.items() if k != name}
        yield name, catalog._replace(bundles=bundles)
    for i, prod in enumerate(catalog.products):
        yield prod, catalog._replace(products=catalog.products[:i] + catalog.products[i + 1:])


def _no_narrower(wide, narrow):
    """Is every interval of solution `wide` at least as wide as the same
    interval of `narrow`?  wcat exists only where a fact mentions it."""
    for name, state in wide.states.items():
        for inv, iv in state.intervals.items():
            other = narrow.states[name].intervals[inv]
            if iv.lower > other.lower:
                return False
            if iv.upper is not None and (other.upper is None or iv.upper < other.upper):
                return False
    return True


@pytest.mark.parametrize("source", SOURCES)
def test_deleting_a_fact_bundle_or_product_never_narrows(source):
    catalog = link(_documents(source))
    full = propagate(catalog)
    deletions = 0
    for what, smaller in _deletions(catalog):
        assert _no_narrower(propagate(smaller), full), what
        deletions += 1
    assert deletions == len(catalog.facts) + len(catalog.bundles) + len(catalog.products)


def _renamed(docs, new):
    """The documents with every space and ring name replaced by new[name],
    and each bundle name that new maps too."""
    out = []
    for doc in docs:
        decls = []
        for decl in doc.declarations:
            if decl.kind == "ring":
                decl = decl._replace(name=new[decl.name])
                decl = decl._replace(presentation=ring_presentation(decl))
            elif decl.kind == "space":
                ref = decl.cohomology
                decl = decl._replace(
                    name=new[decl.name],
                    knowns=[k._replace(space=new[k.space]) for k in decl.knowns],
                    cohomology=ref and ref._replace(ring=new[ref.ring]),
                )
            elif decl.kind == "bundle":
                group = decl.structure_group
                decl = decl._replace(
                    name=new.get(decl.name, decl.name),
                    total=new[decl.total],
                    fiber=new[decl.fiber],
                    base=new[decl.base],
                    structure_group=new.get(group, group),
                )
            elif decl.kind == "product":
                decl = decl._replace(
                    total=new[decl.total], left=new[decl.left], right=new[decl.right]
                )
            else:
                decl = decl._replace(space=new[decl.space])
            decls.append(decl)
        out.append(doc._replace(declarations=decls))
    return out


def _permuted(data, new):
    """The JSON report `data` with every space renamed by new."""

    def entry(credit):
        credit = dict(credit)
        if credit["rule"] == "product":
            left, rest = credit["detail"].split(" x ", 1)
            right, rest = rest.split(": ", 1)
            credit["detail"] = f"{new[left]} x {new[right]}: {rest}"
        return credit

    spaces = {}
    for name, space in data["spaces"].items():
        spaces[new[name]] = {**space, "provenance": [entry(c) for c in space["provenance"]]}
    contradictions = [
        {**c, "space": new[c["space"]], "lower": entry(c["lower"]), "upper": entry(c["upper"])}
        for c in data["contradictions"]
    ]
    return {"spaces": spaces, "contradictions": sorted(contradictions, key=lambda c: c["space"])}


@pytest.mark.parametrize("source", SOURCES)
def test_renaming_every_space_and_ring_permutes_the_report(source):
    docs = _documents(source)
    catalog = link(docs)
    # new names sort in the reverse of the old order, so every order that
    # follows the names is reversed
    spaces, rings = sorted(catalog.spaces), sorted(catalog.rings)
    new = {name: f"s{len(spaces) - i:03d}" for i, name in enumerate(spaces)}
    new.update({name: f"r{len(rings) - i:03d}" for i, name in enumerate(rings)})
    renamed = link(_renamed(docs, new))
    assert sorted(renamed.spaces) == sorted(new[name] for name in spaces)
    want = _permuted(solution_json(propagate(catalog)), new)
    got = solution_json(propagate(renamed))
    assert json.dumps(got, indent=1, sort_keys=True) == json.dumps(want, indent=1, sort_keys=True)


@pytest.mark.parametrize("source", SOURCES)
def test_two_disjoint_copies_solve_as_each_alone(source):
    docs = _documents(source)
    catalog = link(docs)
    names = [*catalog.spaces, *catalog.rings, *catalog.bundles]
    copies = [_renamed(docs, {name: prefix + name for name in names}) for prefix in ("a.", "b.")]
    alone = [solution_json(propagate(link(copy))) for copy in copies]
    both = propagate(link(copies[0] + copies[1]))
    want = {
        "spaces": {**alone[0]["spaces"], **alone[1]["spaces"]},
        "contradictions": alone[0]["contradictions"] + alone[1]["contradictions"],
    }
    assert len(want["spaces"]) == 2 * len(catalog.spaces)
    assert solution_json(both) == want


def _intervals(solution):
    return {
        (name, inv): (iv.lower, iv.upper)
        for name, state in solution.states.items()
        for inv, iv in state.intervals.items()
    }


@pytest.mark.parametrize("source", SOURCES)
def test_a_fact_equal_to_a_solved_end_changes_no_interval(source):
    catalog = link(_documents(source))
    solved = _intervals(propagate(catalog))
    added = 0
    for (name, inv), (lower, upper) in solved.items():
        for qualifier, value in (("lower", lower), ("upper", upper)):
            if value is None:
                continue
            fact = KnownFact(name, inv, qualifier, value, "the solved end")
            more = catalog._replace(facts=tuple(sorted({*catalog.facts, fact})))
            assert _intervals(propagate(more)) == solved, fact
            added += 1
    assert added >= len(solved)


def _shuffled(docs, seed):
    """The documents' declarations in a seeded random order, dealt into at
    least two documents at random cut points."""
    rng = random.Random(seed)
    decls = [decl for doc in docs for decl in doc.declarations]
    rng.shuffle(decls)
    cuts = sorted(rng.randint(0, len(decls)) for _ in range(max(2, len(docs)) - 1))
    bounds = [0, *cuts, len(decls)]
    return [
        docs[0]._replace(path=f"shuffled{i}.lsc", declarations=decls[start:end])
        for i, (start, end) in enumerate(zip(bounds, bounds[1:]))
    ]


@pytest.mark.parametrize("source", SOURCES)
def test_declaration_order_changes_no_bound_and_no_credit(source):
    docs = _documents(source)
    want = propagate(link(docs))
    report = solution_json(want)
    for shuffle in range(4):
        catalog = link(_shuffled(docs, shuffle))
        for rule_seed in (None, 1):
            got = propagate(catalog, rule_seed=rule_seed)
            assert solution_json(got) == report, (shuffle, rule_seed)
            assert got == want, (shuffle, rule_seed)


# rule -> (its detail's two read ends, its bound of them)
_DETAIL_READS = {
    "product": (re.compile(r": (\d+) \+ (\d+)$"), product_bound),
    "fiber-base": (re.compile(r": \((\d+)\+1\)\((\d+)\+1\)-1$"), general_bundle_bound),
}


def _credits_read_final_ends(solution):
    """(stale credits, product and fiber-base credits, chain credits): a
    credit is stale when the final ends it reads do not give its value."""
    stale, counts = [], {"inflow": 0, "chain": 0}
    for space in solution.provenance:
        for credit in solution.provenance[space]:
            if credit.rule not in (*_DETAIL_READS, "chain"):
                continue
            read = solution.provenance.inputs(space, credit.invariant, credit.side)
            ends = [getattr(solution.interval(name, inv), side) for name, inv, side in read]
            if credit.rule == "chain":
                counts["chain"] += 1
                final = ends == [credit.value]
            else:
                counts["inflow"] += 1
                pattern, bound = _DETAIL_READS[credit.rule]
                detail = [int(n) for n in pattern.search(credit.detail).groups()]
                final = ends == detail and bound(*detail) == credit.value
            if not final:
                stale.append((credit, read, ends))
    return stale, counts["inflow"], counts["chain"]


@pytest.mark.parametrize("source", [*SOURCES, *CYCLES])
def test_every_credit_reads_final_ends(source):
    docs = [parse(CYCLES[source])] if source in CYCLES else _documents(source)
    catalog = link(docs)
    for rule_seed in (None, 1):
        stale, inflow, chain = _credits_read_final_ends(propagate(catalog, rule_seed=rule_seed))
        assert not stale, rule_seed
        # not vacuous: the corpus credits SO(8)'s cat and Cat uppers to its
        # product, and every cycle has an inflow credit
        if source == "corpus":
            assert inflow == 2 and chain > 0, rule_seed
        if source in CYCLES:
            assert inflow > 0, rule_seed


def _ground_truth():
    """A catalog of 41 spaces with cat = Cat known (Cornea, Lupton, Oprea and
    Tanre, Lusternik-Schnirelmann Category, chapter 1), as its text and a
    map from each space to that value:
    - S^n, n = 1..8: 1;
    - RP^n over Z/2, n = 1..8: n;
    - CP^n, n = 1..6, and HP^n, n = 1..4: n;
    - the lens space L^{2n-1}(p), p = 3, 5, 7 and n = 1..4, with cohomology
      Lambda(x1) (x) Z/p[y]/(y^n) and even loop space cohomology: 2n-1;
    - the products of k = 2..4 copies of S^2, each declared the product of
      the one before and S^2: k.
    """
    lines, truth = [], {}

    def space(name, value, dim, p, gens, attrs=""):
        ring = " ".join(f"gen {g} : deg {deg} trunc {trunc};" for g, deg, trunc in gens)
        lines.append(f"ring H({name}) over Z/{p} {{ {ring} }}")
        lines.append(f"space {name} {{ dim {dim}; {attrs}cohomology H({name}) over Z/{p}; }}")
        truth[name] = value

    for n in range(1, 9):
        space(f"S{n}", 1, n, 2, [("x", n, 2)], f"connectivity {n - 1}; ")
        space(f"RP{n}", n, n, 2, [("x", 1, n + 1)])
    for n in range(1, 7):
        space(f"CP{n}", n, 2 * n, 2, [("x", 2, n + 1)], "connectivity 1; ")
    for n in range(1, 5):
        space(f"HP{n}", n, 4 * n, 2, [("x", 4, n + 1)], "connectivity 3; ")
    for p in (3, 5, 7):
        for n in range(1, 5):
            # Z/p[y]/(y) is Z/p: L^1(p) is the circle
            gens = [("x1", 1, 2)] + ([("y", 2, n)] if n > 1 else [])
            space(f"L{2 * n - 1}({p})", 2 * n - 1, 2 * n - 1, p, gens, "loopspace-even; ")
    for k in range(2, 5):
        name = "x".join(["S2"] * k)
        space(name, k, 2 * k, 2, [(f"a{i}", 2, 2) for i in range(k)], "connectivity 1; ")
        lines.append(f"product {name} = {'x'.join(['S2'] * (k - 1))} * S2;")
    return "\n".join(lines) + "\n", truth


def test_every_interval_contains_the_known_value():
    text, truth = _ground_truth()
    doc = parse(text)
    assert not doc.diagnostics, [str(d) for d in doc.diagnostics]
    solution = propagate(link([doc]))
    assert len(truth) == len(solution.states) == 41
    wrong = []
    for name, value in truth.items():
        intervals = solution.states[name].intervals
        for inv in CHAIN:
            iv = intervals[inv]
            # cup and sigmacat may fall short of cat; only their lower ends
            # are bounds on it
            if iv.lower > value or (
                inv in ("cat", "Cat") and iv.upper is not None and iv.upper < value
            ):
                wrong.append(f"{inv}({name}) = {value}, solved {iv}")
    assert not wrong
    assert not solution.contradictions
