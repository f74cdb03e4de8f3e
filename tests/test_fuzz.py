"""Grammar fuzzer for the front end and the pipeline behind it.

Each document declares a few rings and spaces under distinct names, then
bundles, products and facts that refer to them; relations are
degree-homogeneous and point to later generators.  Half the documents also
carry faults: at some choices an out-of-range value, a malformed relation or
a dangling name takes the place of the valid option, so every stage meets
input it must refuse, while the other half reach the solver.  Each document
goes through parse, link, propagate and both renderings; nothing may raise
but the errors the command line reports, every settled interval end must be
credited to a rule, and the solution must equal the full-pass reference
solver's.  A document that parses cleanly must also survive render and parse
unchanged.
"""

import contextlib
import io
import re
import tempfile
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from reference_render import render
from reference_solver import reference_propagate

from catbound.catalog import LinkError, link
from catbound.cli import _ERRORS, main, render_table, solution_json
from catbound.dsl import INVARIANTS, parse
from catbound.solver import propagate

RINGS = ("R0", "R1")
SPACES = ("S0", "S1", "S2")
GENS = ("x", "y", "z")
# Small enough that a search that needs more stops at once with an error.
MAX_SEARCH = 500
# Valid wherever an integer >= 0 is; dims and values may be huge.
VALUES = (0, 1, 2, 3, 4, 6, 8, 10**30)


class _Writer:
    """Document text from one Hypothesis draw function."""

    def __init__(self, draw):
        self.draw = draw
        self.faulty = draw(st.booleans())
        self.bounds = {}  # ring name -> (top degree, least degree), as written

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def often(self, valid, *faults):
        """`valid`, or in a faulty document sometimes one of the faults."""
        if self.faulty and self.draw(st.integers(0, 3)) == 0:
            return self.pick(faults)
        return valid

    def ring(self, name, p):
        n = self.often(self.draw(st.integers(1, 3)), 0)
        degrees = [self.often(self.draw(st.integers(1, 4)), 0) for _ in range(n)]
        rels, powers = {}, {}  # powers: a relation's source -> its rule power
        for src in self.draw(st.lists(st.integers(0, n - 2), max_size=2)) if n > 1 else ():
            tgt = self.draw(st.integers(src + 1, n - 1))
            if p != 2 and degrees[src] % 2:
                continue  # an odd generator squares to zero over Z/p, p odd
            # g^e = h^k with e * deg g = k * deg h: homogeneous
            d = gcd(degrees[src], degrees[tgt]) or 1
            e, k = degrees[tgt] // d, degrees[src] // d
            if e < 2:
                e, k = 2 * e, 2 * k
            target = self.pick((f"{GENS[tgt]}^{k}", f"2 * {GENS[tgt]}^{k}", "0"))
            target = self.often(target, GENS[src], f"0 * {GENS[tgt]}", "y^9")
            rels[src] = f"rel {GENS[src]}^{e} = {target};"
            powers[src] = e
        stmts = []
        top = 0
        for i, degree in enumerate(degrees):
            if i in rels:
                trunc = ""
            elif p != 2 and degree % 2:
                trunc = " exterior"
            else:
                trunc = self.pick((" exterior", " trunc 3", " trunc 4"))
            trunc = self.often(trunc, "", " trunc 1", " trunc 3")
            weight = self.often(self.pick(("", " weight 2")), " weight 0")
            stmts.append(f"gen {GENS[i]} : deg {degree}{trunc}{weight};")
            # deg * (r - 1): r the rule power, else the truncation, else 2
            r = powers.get(i) or (int(trunc.split()[-1]) if "trunc" in trunc else 2)
            top += degree * (r - 1)
        stmts += rels.values()
        self.bounds[name] = (top, min(degrees, default=10**30))
        return f"ring {name} over Z/{p} {{ {' '.join(stmts)} }}"

    def known(self, space=""):
        qualifier = self.pick(("", "lower ", "upper ", "exact "))
        value = self.pick(VALUES)
        return f'known {qualifier}{space}{self.pick(INVARIANTS)} = {value} from "c";'

    def space(self, name, rings):
        # The ring is drawn first.  H^k = 0 above the dim and for 0 < k <= the
        # connectivity, so the dim is drawn at least the ring's top degree and
        # the connectivity below its least degree.
        ring = self.pick(sorted(rings)) if rings and self.draw(st.booleans()) else None
        top, least = self.bounds[ring] if ring is not None else (0, 10**30)
        # stage dims are nondecreasing and end at the space's dim
        count = self.draw(st.integers(0, 2))
        dims = sorted(
            self.often(self.draw(st.integers(max(top, 1), top + 8)), 0) for _ in range(count)
        )
        stmts = [
            f'stage {i} dim {dim}{self.pick(("", " skeleton"))} "s";'
            for i, dim in enumerate(dims, start=1)
        ]
        if dims or self.draw(st.booleans()):
            above = [v for v in VALUES if v >= top]
            dim = self.often(dims[-1], 9) if dims else self.pick(above)
            stmts.append(f"dim {dim};")
        if self.draw(st.booleans()):
            connectivity = self.pick([v for v in VALUES if v < least] or [0])
            stmts.append(f"connectivity {self.often(connectivity, 10**30)};")
        if ring is not None:
            p = self.often(rings[ring], 7)
            complete = self.pick(("", " complete"))
            stmts.append(f"cohomology {self.often(ring, 'R9')} over Z/{p}{complete};")
        if self.draw(st.booleans()):
            stmts.append("loopspace-even;")
        stmts += [self.known() for _ in range(self.draw(st.integers(0, 2)))]
        return f"space {name} {{ {' '.join(stmts)} }}"


@st.composite
def documents(draw):
    w = _Writer(draw)
    rings = {
        name: w.often(w.pick((2, 3, 5)), 4)
        for name in draw(st.lists(st.sampled_from(RINGS), unique=True))
    }
    spaces = draw(st.lists(st.sampled_from(SPACES), unique=True, min_size=1))
    decls = [w.ring(name, p) for name, p in rings.items()]
    decls += [w.space(name, rings) for name in spaces]

    def space():
        return w.often(w.pick(spaces), "S9")

    if draw(st.booleans()):
        d = w.often(draw(st.integers(1, 3)), 0, 10**30)
        s = w.often(draw(st.integers(0, max(d - 1, 0))), d)
        group = w.pick(("trivial", space()))
        compatibility = w.pick(("skeletal", "trivial", "none", 'verified "v"'))
        decls.append(
            f"bundle B {{ fiber {space()}; base {space()}; total {space()}; "
            f"structure-group {group}; cells-mod {d} {s}; "
            f"compatibility {compatibility}; }}"
        )
    for _ in range(draw(st.integers(0, 2))):
        decls.append(f"product {space()} = {space()} * {space()};")
    for _ in range(draw(st.integers(0, 2))):
        decls.append(w.known(space=f"{space()} "))
    return "\n".join(draw(st.permutations(decls)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents())
def test_grammar_documents_fail_only_with_reported_errors(text):
    doc = parse(text)
    if not doc.diagnostics:
        again = parse(render(doc))
        assert not again.diagnostics and again.declarations == doc.declarations
    try:
        catalog = link([doc])
        solution = propagate(catalog, max_search=MAX_SEARCH)
    except _ERRORS:
        return
    assert solution == reference_propagate(catalog, max_search=MAX_SEARCH)
    # every positive lower end and every finite upper end, and nothing else,
    # is credited at its value
    for name, state in solution.states.items():
        ends = []
        for inv, iv in state.intervals.items():
            if iv.lower > 0:
                ends.append((name, inv, "lower", iv.lower))
            if iv.upper is not None:
                ends.append((name, inv, "upper", iv.upper))
        assert [e[:4] for e in solution.provenance[name]] == ends
    render_table(solution)
    solution_json(solution)


# -- the link refusals no random document reaches --------------------------------
# Of the 200 documents above none stops on the connectivity, bundle-dim or
# product-dim check, so each gets documents built to break it: the writer's
# valid rings, or spaces whose dims sum below the total's.


@st.composite
def refused_documents(draw, check):
    """A document link must refuse by `check`, and the refusal's message."""
    w = _Writer(draw)
    w.faulty = False  # the refusal under test is the document's one fault
    if check == "connectivity":
        p = w.pick((2, 3, 5))
        ring = w.ring("R0", p)
        top, least = w.bounds["R0"]
        connectivity = draw(st.integers(least, least + 3))
        dim = draw(st.integers(max(top, connectivity + 1), top + 8))
        space = f"space S0 {{ dim {dim}; connectivity {connectivity}; "
        decls = [ring, space + f"cohomology R0 over Z/{p}; }}"]
        low = next(g for g in parse(ring).declarations[0].gens if g.degree <= connectivity)
        message = (
            f"space 'S0': ring 'R0' has generator {low.name!r} in degree "
            f"{low.degree}, within the space connectivity {connectivity}"
        )
        return "\n".join(draw(st.permutations(decls))), message
    f, b = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    t = f + b + draw(st.integers(1, 8))
    decls = [f"space F {{ dim {f}; }}", f"space B {{ dim {b}; }}", f"space T {{ dim {t}; }}"]
    if check == "bundle":
        compatibility = w.pick(("skeletal", "trivial", "none", 'verified "v"'))
        decls.append(
            "bundle E { fiber F; base B; total T; "
            f"structure-group {w.pick(('trivial', 'F'))}; cells-mod 1 0; "
            f"compatibility {compatibility}; }}"
        )
        where = "bundle 'E'"
    else:
        decls.append("product T = F * B;")
        where = "product statement"
    decls += [w.known(space=f"{w.pick(('F', 'B', 'T'))} ") for _ in range(draw(st.integers(0, 2)))]
    message = f"{where}: total 'T' has dim {t}, above dim 'F' + dim 'B' = {f} + {b}"
    return "\n".join(draw(st.permutations(decls))), message


@pytest.mark.parametrize("check", ["connectivity", "bundle", "product"])
def test_each_dim_and_connectivity_refusal_is_reported(check):
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(refused_documents(check))
    def refused(case):
        text, message = case
        doc = parse(text)
        assert not doc.diagnostics, [str(d) for d in doc.diagnostics]
        with pytest.raises(LinkError, match=f"^{re.escape(message)}$"):
            link([doc])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "refused.lsc")
            path.write_text(text, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["validate", str(path)])
        assert (code, out.getvalue()) == (1, f"link error: {message}\n")

    refused()
