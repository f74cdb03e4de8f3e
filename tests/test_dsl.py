import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from catbound.algebra import RingPresentation
from catbound.catalog import LinkError, link
from catbound.cones import (
    BundleRecord,
    CompatibilityCertificate,
    ConeDecomposition,
    ConeError,
    ConeStage,
)
from catbound.corpus import parse_sources, read_sources
from catbound.dsl import (
    KnownFact,
    ProductDecl,
    RingDecl,
    SpaceDecl,
    parse,
    render,
    ring_presentation,
)

SO5 = """
ring SO5_mod2 over Z/2 {
  gen x1 : deg 1 trunc 8;
  gen x3 : deg 3 trunc 2;
}
space SO(5) { dim 10; connectivity 0; cohomology SO5_mod2 over Z/2; }
space Sp(1) {
  dim 3;
  connectivity 2;
  stage 1 dim 3 skeleton "the 3-sphere";
  known cat = 1 from "spheres";
}
space RP7 { dim 7; }
bundle so5 {
  fiber Sp(1);
  base RP7;
  total SO(5);
  structure-group Sp(1);
  cells-mod 1 0;
  compatibility skeletal;
}
"""


def parse_clean(text):
    doc = parse(text)
    assert doc.ok, [str(d) for d in doc.diagnostics]
    return doc


# -- parsing ------------------------------------------------------------------


def test_shipped_sources_parse_cleanly():
    for name, text in read_sources():
        doc = parse(text, path=name)
        assert doc.ok, (name, [str(d) for d in doc.diagnostics])
        assert doc.declarations


def test_render_parse_round_trip_on_shipped_sources():
    for name, text in read_sources():
        doc = parse(text, path=name)
        again = parse(render(doc), path=name)
        assert again.ok
        assert again.declarations == doc.declarations


def test_exterior_is_truncation_two():
    doc = parse_clean("ring R over Z/2 { gen x : deg 3 exterior; }")
    (ring,) = doc.declarations
    assert ring.gens[0].trunc == 2
    assert "trunc 2" in render(doc)


def test_relation_forms():
    doc = parse_clean(
        """
        ring R over Z/3 {
          gen a : deg 2;
          gen b : deg 3 exterior;
          gen c : deg 3 exterior;
          rel a^3 = 2 * b * c;
        }
        ring S over Z/2 { gen x : deg 1; rel x^4 = 0; }
        """
    )
    rel_ring, zero_ring = doc.declarations
    assert rel_ring.rels[0][1].coeff == 2
    assert rel_ring.rels[0][1].powers == (("b", 1), ("c", 1))
    pres = ring_presentation(rel_ring)
    assert pres.substitutions["a"].coeff == 2
    assert ring_presentation(zero_ring).effective_truncation("x") == 4
    assert parse(render(doc)).declarations == doc.declarations


def test_known_fact_forms():
    doc = parse_clean(
        """
        space X { dim 3; known lower cup = 2 from "a witness"; }
        known upper X cat = 3 from "cells";
        known X cat = 3 from "both bounds";
        """
    )
    space, upper, exact = doc.declarations
    assert space.knowns == [KnownFact("X", "cup", "lower", 2, "a witness")]
    assert upper == KnownFact("X", "cat", "upper", 3, "cells")
    assert exact.qualifier == "exact"


def test_space_statements():
    doc = parse_clean(
        """
        space Q {
          dim 8;
          connectivity 0;
          loopspace-even;
          cohomology R over Z/3 complete;
        }
        """
    )
    (space,) = doc.declarations
    assert space.loopspace_even
    assert space.cohomology.ring == "R"
    assert space.cohomology.p == 3
    assert space.cohomology.complete


def test_citation_escapes_survive_round_trip():
    doc = parse_clean(
        'space X { dim 1; known cat = 1 from "say \\"hi\\" \\\\ there"; }'
    )
    assert doc.declarations[0].knowns[0].citation == 'say "hi" \\ there'
    assert parse(render(doc)).declarations == doc.declarations


# -- diagnostics and recovery ---------------------------------------------------


def test_nonprime_modulus_is_a_diagnostic_not_a_crash():
    doc = parse("ring R over Z/4 { gen x : deg 1 trunc 2; }")
    assert not doc.ok
    assert "prime" in doc.diagnostics[0].message
    assert doc.declarations == []


def test_two_relations_on_one_generator_is_rejected():
    doc = parse("ring R over Z/2 { gen x : deg 1; rel x^2 = 0; rel x^3 = 0; }")
    assert not doc.ok
    assert "two relations" in doc.diagnostics[0].message


def test_unknown_keyword_position():
    doc = parse("widget W;")
    assert not doc.ok
    diag = doc.diagnostics[0]
    assert (diag.line, diag.col) == (1, 1)
    assert "unknown declaration keyword" in diag.message


def test_repeated_space_statement():
    doc = parse("space X { dim 3; dim 4; }")
    assert not doc.ok
    assert "repeated dim" in doc.diagnostics[0].message


def test_unterminated_string():
    doc = parse('space X { known cat = 3 from "oops; }')
    assert not doc.ok
    assert any("unterminated" in d.message for d in doc.diagnostics)


def test_unexpected_character():
    doc = parse("ring R @ Z/2 {}")
    assert not doc.ok
    assert "unexpected character" in doc.diagnostics[0].message


def test_a_missing_closing_brace_swallows_the_declarations_after_it():
    doc = parse("space X { dim 1;\nspace Y { dim 2; }\nspace Z { dim 3; }")
    assert [str(d) for d in doc.diagnostics] == ["2:1: unknown space statement 'space'"]
    assert doc.declarations == []


def test_recovery_keeps_later_declarations():
    doc = parse(
        """
        space Broken { dim; }
        ring R over Z/2 { gen x : deg 1 trunc 2; }
        """
    )
    assert not doc.ok
    kinds = [d.kind for d in doc.declarations]
    assert kinds == ["ring"]
    assert doc.declarations[0].name == "R"


def test_missing_bundle_field():
    doc = parse(
        "bundle b { fiber F; base B; total T; structure-group F; compatibility skeletal; }"
    )
    assert not doc.ok
    assert "missing" in doc.diagnostics[0].message


def test_bundle_cell_shift_must_stay_below_the_period():
    doc = parse(
        """
        bundle b {
          fiber F; base B; total T; structure-group F;
          cells-mod 2 2;
        }
        """
    )
    assert not doc.ok
    assert "s must satisfy" in doc.diagnostics[0].message


def test_stage_numbering_is_checked():
    doc = parse(
        """
        space X {
          dim 8;
          stage 1 dim 5 "first";
          stage 3 dim 8 "third";
        }
        """
    )
    assert not doc.ok
    assert "numbered 1..m" in doc.diagnostics[0].message


def _bundle(body):
    return (
        "bundle b { fiber F; base B; total T; structure-group F; "
        f"{body} }}"
    )


@pytest.mark.parametrize(
    "text, record, at",
    [
        (
            'space X { dim 8; stage 1 dim 5 "a"; stage 3 dim 8 "c"; }',
            lambda: ConeDecomposition("X", (ConeStage(1, 5), ConeStage(3, 8))),
            (1, 1),
        ),
        (
            'space X { dim 8; stage 1 dim 0 "a"; }',
            lambda: ConeDecomposition("X", (ConeStage(1, 0),)),
            (1, 1),
        ),
        (
            _bundle("cells-mod 0 0;"),
            lambda: BundleRecord("b", "T", "F", "B", "F", 0, 0, 8),
            (1, 1),
        ),
        (
            _bundle("cells-mod 2 2;"),
            lambda: BundleRecord("b", "T", "F", "B", "F", 2, 2, 8),
            (1, 1),
        ),
        (
            _bundle("cells-mod 1 0; compatibility bogus;"),
            lambda: CompatibilityCertificate("bogus"),
            (1, 86),
        ),
        (
            _bundle('cells-mod 1 0; compatibility verified "  ";'),
            lambda: CompatibilityCertificate("verified", "  "),
            (1, 86),
        ),
    ],
    ids=["numbering", "stage-dim", "period", "residue", "kind", "blank-reason"],
)
def test_parser_reports_the_record_check_verbatim(text, record, at):
    with pytest.raises(ConeError) as info:
        record()
    doc = parse(text)
    assert [(d.line, d.col, d.message) for d in doc.diagnostics] == [
        (*at, str(info.value))
    ]
    assert doc.declarations == []


def test_top_level_fact_must_name_its_space():
    doc = parse('known cup = 2 from "nowhere";')
    assert not doc.ok
    assert "must name the space" in doc.diagnostics[0].message


def test_non_decimal_digit_is_an_unexpected_character():
    doc = parse("space A { dim \u00b2; }")
    assert [str(d) for d in doc.diagnostics] == [
        "1:15: unexpected character '\u00b2'",
        "1:16: expected dimension, found ';'",
    ]
    assert doc.declarations == []


def test_decimal_digits_outside_ascii_still_parse():
    doc = parse_clean("space A { dim \u0663; }")
    assert doc.declarations[0].dim == 3


def test_overlong_integer_is_a_diagnostic_and_parsing_resumes():
    value = "1" * 5000
    doc = parse(f'known A cat = {value} from "x";\nspace A {{ dim 2; }}')
    assert [str(d) for d in doc.diagnostics] == [
        "1:15: value is too long (5000 digits)"
    ]
    assert [(d.kind, d.name) for d in doc.declarations] == [("space", "A")]


def test_overlong_modulus_is_a_diagnostic_and_parsing_resumes():
    modulus = "7" * 5000
    doc = parse(
        f"ring R over Z/{modulus} {{ gen x : deg 1; }}\n"
        "ring S over Z/2 { gen y : deg 1 trunc 2; }"
    )
    assert [str(d) for d in doc.diagnostics] == [
        "1:13: modulus is too long (5000 digits)"
    ]
    assert [(d.kind, d.name) for d in doc.declarations] == [("ring", "S")]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=200))
def test_parse_is_total(text):
    doc = parse(text)
    assert doc is not None
    render(doc)  # rendering what survived must not crash either


# -- linking --------------------------------------------------------------------


def test_linking_the_small_bundle_document():
    catalog = link([parse_clean(SO5)])
    assert sorted(catalog.rings) == ["SO5_mod2"]
    assert sorted(catalog.spaces) == ["RP7", "SO(5)", "Sp(1)"]
    assert sorted(catalog.bundles) == ["so5"]
    assert len(catalog.facts) == 1
    bundle = catalog.bundles["so5"]
    assert bundle.base_dim == 7
    assert bundle.fiber_decomposition.length == 1
    assert bundle.certificate.kind == "skeletal"


def test_spaces_of_dimension_zero_get_the_empty_decomposition():
    catalog = link([parse_clean("space P { dim 0; }")])
    dec = catalog.spaces["P"].decomposition
    assert dec is not None and dec.length == 0


def test_facts_are_deduplicated_and_sorted():
    catalog = link(
        [
            parse_clean(
                """
                space X { dim 3; known cat = 1 from "s"; }
                known X cat = 1 from "s";
                known lower X cup = 1 from "t";
                """
            )
        ]
    )
    assert [(f.invariant, f.qualifier) for f in catalog.facts] == [
        ("cat", "exact"),
        ("cup", "lower"),
    ]


def test_link_is_order_independent():
    docs = parse_sources(read_sources())
    reference = link(docs)
    rng = random.Random(11)
    for _ in range(4):
        shuffled = docs[:]
        rng.shuffle(shuffled)
        assert link(shuffled) == reference


@pytest.mark.parametrize(
    "source, message",
    [
        ("space X { dim 3; cohomology Nope over Z/2; }", "undeclared ring"),
        (
            "ring R over Z/2 { gen x : deg 1 trunc 2; }\n"
            "space X { dim 3; cohomology R over Z/3; }",
            "presented over",
        ),
        ("space X { dim 3; }\nspace X { dim 3; }", "duplicate declaration"),
        ("ring X over Z/2 { gen x : deg 1 trunc 2; }\nspace X { dim 3; }", "duplicate"),
        (
            SO5 + "\nbundle again { fiber Nope; base RP7; total SO(5);"
            " structure-group Sp(1); cells-mod 1 0; }",
            "not a declared space",
        ),
        (
            SO5 + "\nbundle again { fiber Sp(1); base RP7; total SO(5);"
            " structure-group Nope; cells-mod 1 0; }",
            "structure group",
        ),
        (
            "space F { dim 3; }\nspace B { connectivity 0; }\nspace T { dim 9; }\n"
            "bundle b { fiber F; base B; total T; structure-group F; cells-mod 1 0; }",
            "no declared dim",
        ),
        (
            "space F { dim 3; }\nspace B { dim 1; connectivity 1; }\nspace T { dim 9; }\n"
            "bundle b { fiber F; base B; total T; structure-group F; cells-mod 2 0; }",
            "smaller than the cell period",
        ),
        (
            "space F { dim 3; }\nspace B { dim 8; }\nspace T { dim 11; }\n"
            "bundle b { fiber F; base B; total T; structure-group F; cells-mod 2 0; }",
            "connected base",
        ),
        (
            'space X { dim 8; stage 1 dim 6 "a"; stage 2 dim 5 "b"; stage 3 dim 8 "c"; }',
            "nondecreasing",
        ),
        (
            'space X { dim 8; stage 1 dim 5 "a"; }',
            "final stage has dim",
        ),
        ("product P = A * B;", "not a declared space"),
        ('known X cat = 1 from "s";', "undeclared space"),
    ],
)
def test_link_errors(source, message):
    with pytest.raises(LinkError, match=message):
        link([parse_clean(source)])


def test_trivial_structure_group_is_a_literal():
    catalog = link(
        [
            parse_clean(
                """
                space F { dim 3; }
                space B { dim 7; }
                space T { dim 10; }
                bundle b {
                  fiber F; base B; total T;
                  structure-group trivial;
                  cells-mod 1 0;
                  compatibility trivial;
                }
                """
            )
        ]
    )
    assert catalog.bundles["b"].structure_group == "trivial"


def test_parse_and_link_build_each_ring_once(monkeypatch):
    built = []
    init = RingPresentation.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["name"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingPresentation, "__init__", counted)
    docs = parse_sources(read_sources())
    rings = [d.name for doc in docs for d in doc.declarations if d.kind == "ring"]
    catalog = link(docs)
    assert sorted(built) == sorted(rings) == sorted(catalog.rings)
    assert len(rings) == 16


def test_parse_and_link_build_each_decomposition_once(monkeypatch):
    built = []
    post_init = ConeDecomposition.__post_init__

    def counted(self):
        built.append(self.space)
        post_init(self)

    monkeypatch.setattr(ConeDecomposition, "__post_init__", counted)
    docs = parse_sources(read_sources())
    spaces = [d for doc in docs for d in doc.declarations if d.kind == "space"]
    decomposed = [d.name for d in spaces if d.stages or d.dim == 0]
    catalog = link(docs)
    assert sorted(built) == sorted(decomposed)
    assert len(decomposed) == 7
    for decl in spaces:
        assert catalog.spaces[decl.name].decomposition is decl.decomposition
    for bundle in catalog.bundles.values():
        fiber = catalog.spaces[bundle.fiber]
        assert bundle.fiber_decomposition is fiber.decomposition


def test_link_leaves_the_parsed_documents_as_they_are():
    docs = parse_sources(read_sources())
    before = [[(d, vars(d).copy()) for d in doc.declarations] for doc in docs]
    catalog = link(docs)
    for doc, decls in zip(docs, before):
        assert [(d, vars(d)) for d in doc.declarations] == decls
    assert catalog.spaces["SO(5)"].ring is catalog.rings["SO5_mod2"]
    assert catalog.bundles["so5"].base_dim == 7


def test_link_gathers_facts_and_products_across_documents():
    facts_first = parse_clean(
        """
        known upper X cat = 4 from "first";
        known lower X cup = 1 from "second";
        known Y Cat = 2 from "third";
        product P = X * Y;
        product Q = Y * X;
        """
    )
    spaces = parse_clean(
        """
        space X { dim 4; connectivity 1; known cat = 2 from "inline"; }
        space Y { dim 2; connectivity 1; }
        space P { dim 6; }
        space Q { dim 6; }
        """
    )
    bundles = parse_clean(
        """
        bundle b2 { fiber Y; base X; total P; structure-group trivial; cells-mod 2 0; }
        bundle b1 { fiber X; base Y; total P; structure-group trivial; cells-mod 2 0; }
        bundle b3 { fiber X; base Y; total Q; structure-group trivial; cells-mod 2 1; }
        """
    )
    catalog = link([facts_first, bundles, spaces])
    assert catalog.facts == (
        KnownFact("X", "cat", "exact", 2, "inline"),
        KnownFact("X", "cat", "upper", 4, "first"),
        KnownFact("X", "cup", "lower", 1, "second"),
        KnownFact("Y", "Cat", "exact", 2, "third"),
    )
    assert catalog.products == (ProductDecl("P", "X", "Y"), ProductDecl("Q", "Y", "X"))
    assert list(catalog.bundles) == ["b2", "b1", "b3"]


# Each malformed document is followed by a clean `space A`, which recovery
# must keep.
@pytest.mark.parametrize(
    "text, diagnostics, survivors",
    [
        (
            "ring R over Z/2 { gen x : deg 1 trunc 2; foo; }",
            ["1:42: unknown ring statement 'foo' (expected gen or rel)"],
            [],
        ),
        (
            "ring R over Z/2 { gen x : deg 1 bogus 2; }",
            ["1:33: unknown generator attribute 'bogus'"],
            [],
        ),
        ("space X { dim 1; frob 2; }", ["1:18: unknown space statement 'frob'"], []),
        (
            "bundle b { fiber F; wobble; }",
            ["1:21: unknown bundle statement 'wobble'"],
            [],
        ),
        (
            "space X { connectivity 1; connectivity 2; }",
            ["1:27: space 'X': repeated connectivity"],
            [],
        ),
        (
            "space X { cohomology R over Z/2; cohomology S over Z/2; }",
            ["1:34: space 'X': repeated cohomology"],
            [],
        ),
        (
            "ring R over Z/2 { gen x : deg 1 trunc 2 trunc 3; }",
            ["1:41: generator 'x': repeated truncation"],
            [],
        ),
        (
            "ring R over Z/2 { gen x : deg 1 trunc 4 exterior; }",
            ["1:41: generator 'x': repeated truncation"],
            [],
        ),
        ("bundle b { fiber F; fiber G; }", ["1:21: bundle 'b': repeated fiber"], []),
        ("bundle b { base F; base G; }", ["1:20: bundle 'b': repeated base"], []),
        ("bundle b { total F; total G; }", ["1:21: bundle 'b': repeated total"], []),
        (
            "bundle b { structure-group F; structure-group G; }",
            ["1:31: bundle 'b': repeated structure-group"],
            [],
        ),
        (
            "bundle b { cells-mod 1 0; cells-mod 2 0; }",
            ["1:27: bundle 'b': repeated cells-mod"],
            [],
        ),
        (
            "bundle b { compatibility skeletal; compatibility trivial; }",
            ["1:36: bundle 'b': repeated compatibility"],
            [],
        ),
        (
            "bundle b { fiber F; base B; total T; cells-mod 1 0; }",
            ["1:1: bundle 'b' is missing structure-group"],
            [],
        ),
        (
            "ring R over Z/2 { }",
            ["1:1: ring 'R' must declare at least one generator"],
            [],
        ),
        (
            'space X { known lower bogus = 2 from "x"; }',
            ["1:23: expected an invariant cup/sigmacat/cat/Cat/wcat, found 'bogus'"],
            [],
        ),
        (
            "space X { dim 1; ring R over Z/2 { gen x : deg 1 trunc 2; } }",
            ["1:18: unknown space statement 'ring'"],
            [],
        ),
        ('space X { "dim" 3; }', ["1:11: unknown space statement 'dim'"], []),
        (
            'space X { dim; known cat = 1 from "s"; }',
            ["1:14: expected dimension, found ';'"],
            [],
        ),
    ],
    ids=[
        "ring-statement",
        "gen-attribute",
        "space-statement",
        "bundle-statement",
        "repeated-connectivity",
        "repeated-cohomology",
        "repeated-trunc",
        "repeated-exterior",
        "repeated-fiber",
        "repeated-base",
        "repeated-total",
        "repeated-structure-group",
        "repeated-cells-mod",
        "repeated-compatibility",
        "missing",
        "no-generator",
        "invariant",
        "ring-in-space",
        "string-keyword",
        "rest-of-block",
    ],
)
def test_each_diagnostic_at_its_token_and_what_recovery_keeps(
    text, diagnostics, survivors
):
    doc = parse(text + "\nspace A { dim 1; }")
    assert [str(d) for d in doc.diagnostics] == diagnostics
    assert [(d.kind, d.name) for d in doc.declarations] == survivors + [("space", "A")]


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        ("ring R over Z/2 { gen x : deg 1 trunc 2;", "2:41: unclosed ring block 'R'"),
        ("space X { dim 1;", "2:17: unclosed space block 'X'"),
        ("bundle b { fiber F;", "2:20: unclosed bundle block 'b'"),
    ],
    ids=["ring", "space", "bundle"],
)
def test_an_unclosed_block_keeps_the_declarations_before_it(text, diagnostic):
    doc = parse("space A { dim 1; }\n" + text)
    assert [str(d) for d in doc.diagnostics] == [diagnostic]
    assert [(d.kind, d.name) for d in doc.declarations] == [("space", "A")]
