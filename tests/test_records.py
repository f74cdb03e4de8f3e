"""Record semantics: value records are immutable tuple subclasses that
behave as namedtuples do, the three checking records run their checks in
every constructor (`_replace` and linking included), the mutable Interval is
a __slots__ class, and a token is a plain str."""

import copy
import pickle
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st
from reference_render import _quote, render

from catbound.algebra import RingPresentation, Substitution
from catbound.catalog import LinkError, link
from catbound.cones import (
    BundleRecord,
    CompatibilityCertificate,
    ConeDecomposition,
    ConeError,
    ConeStage,
    check_compatibility,
    filtration_ledger,
)
from catbound.corpus import parse_sources, read_sources
from catbound.cup import cup_length
from catbound.dsl import KnownFact, ProductDecl, _lex, _value, parse
from catbound.solver import Interval, ganea_check, propagate

BUNDLE = """
space F { dim 3; connectivity 2; stage 1 dim 3 skeleton "the 3-sphere"; }
space B { dim 7; }
space T { dim 10; }
bundle b { fiber F; base B; total T; structure-group F; cells-mod 1 0;
           compatibility skeletal; }
"""


def parse_clean(text):
    doc = parse(text)
    assert not doc.diagnostics, [str(d) for d in doc.diagnostics]
    return doc


def every_record():
    doc = parse_clean(
        BUNDLE
        + "ring R over Z/2 { gen x : deg 1 trunc 4; }\n"
        + 'space X { dim 4; cohomology R over Z/2; known cat = 3 from "s"; }\n'
        + "product P = X * X; space P { dim 8; }\n"
        + 'space C { dim 1; known lower cat = 2 from "s"; }\n'
    )
    catalog = link([doc])
    solution = propagate(catalog)
    ring = catalog.rings["R"]
    bundle = catalog.bundles["b"]
    ledger = filtration_ledger(bundle)
    space = catalog.spaces["X"]
    return [
        ring.generators[0],
        Substitution(2, 1, (("x", 1),)),
        ring.one(),
        ring.factors[0],
        catalog.spaces["F"].stages[0],
        bundle.fiber_decomposition,
        bundle.certificate,
        bundle,
        check_compatibility(bundle),
        ledger.stages[0],
        ledger,
        cup_length(ring),
        parse("space").diagnostics[0],
        catalog.facts[0],
        catalog.products[0],
        space.cohomology,
        next(d for d in doc.declarations if d.kind == "ring"),
        space,
        doc,
        catalog,
        solution.provenance["X"][0],
        solution.contradictions[0],
        ganea_check(solution, "X"),
        solution.states["X"],
        solution,
    ]


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_value_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


def test_every_record_class_is_in_every_record():
    # a subclass that forgets __slots__ = () gains a __dict__ unnoticed
    # unless an instance of it is in every_record()
    from catbound import algebra, catalog, cones, cup, dsl, solver

    classes = {
        value
        for module in (algebra, catalog, cones, cup, dsl, solver)
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }
    assert classes == {type(record) for record in every_record()}


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_records_behave_as_namedtuples(record):
    cls = type(record)
    reference = namedtuple(cls.__name__, cls._fields)._make(record)
    plain = tuple(record)
    assert repr(record) == repr(reference)
    assert record._asdict() == reference._asdict()
    assert list(record._asdict()) == list(cls._fields)
    for name, value in zip(cls._fields, plain):
        assert getattr(record, name) is value
    for copied in (
        cls._make(iter(plain)),
        record._replace(),
        record._replace(**{cls._fields[-1]: plain[-1]}),
        copy.copy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(copied) is cls
        assert copied == record
    with pytest.raises(ValueError, match=r"Got unexpected field names: \['nope'\]"):
        record._replace(nope=1)
    assert record == plain == reference and not record != plain
    assert record <= plain and record >= plain and not record < plain
    assert record < plain + (0,)
    try:
        hash(plain)
    except TypeError:  # a field holds a dict: neither hashes
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(plain) == hash(reference)


STAGE = ConeStage(1, 3)
BUNDLE_FIELDS = dict(
    name="b", total="T", fiber="F", base="B", structure_group="F", d=1, s=0
)


@pytest.mark.parametrize(
    "good, bad, message",
    [
        (ConeDecomposition("F", (STAGE,)), dict(stages=(ConeStage(2, 3),)), "numbered 1..m"),
        (ConeDecomposition("F", (STAGE,)), dict(stages=(ConeStage(1, 0),)), "needs dim >= 1"),
        (CompatibilityCertificate(), dict(kind="strong"), "unknown certificate kind"),
        (CompatibilityCertificate("verified", "r"), dict(reason=" "), "nonempty reason"),
        (BundleRecord(**BUNDLE_FIELDS), dict(d=0), "d must be >= 1"),
        (BundleRecord(**BUNDLE_FIELDS), dict(s=1), "0 <= s <= d-1"),
        (BundleRecord(**BUNDLE_FIELDS), dict(base_dim=-1), "must be >= 0"),
        (BundleRecord(**{**BUNDLE_FIELDS, "d": 3}), dict(base_dim=2), "smaller than the cell period"),
    ],
)
def test_checking_records_refuse_bad_fields_in_every_constructor(good, bad, message):
    with pytest.raises(ConeError, match=message):
        good._replace(**bad)
    with pytest.raises(ConeError, match=message):
        type(good)(**{**good._asdict(), **bad})
    with pytest.raises(ConeError, match=message):
        type(good)._make({**good._asdict(), **bad}.values())


def test_interval_is_a_slots_class_and_tokens_are_strings():
    iv = Interval()
    iv.lower, iv.upper = 2, 3
    assert str(iv) == "[2,3]"
    assert not hasattr(iv, "__dict__")
    with pytest.raises(AttributeError):
        iv.extra = None
    tokens, _, _ = _lex('space "s"')
    assert tokens == ["space", '"s"', ""]
    assert all(type(tok) is str for tok in tokens)


def test_solutions_compare_by_value():
    doc = parse_clean(BUNDLE + 'known T cat = 2 from "s";')
    catalog = link([doc])
    assert propagate(catalog, rule_seed=5) == propagate(catalog)
    assert Interval(1, 2) == Interval(1, 2) != Interval(1, None)
    assert repr(Interval(1, None)) == "Interval(lower=1, upper=None)"


def test_interval_and_ring_are_unequal_to_foreign_types():
    # Their __eq__ returns NotImplemented, so Python falls back to identity.
    assert Interval(1, 2) != (1, 2) and not Interval(1, 2) == (1, 2)
    ring = RingPresentation(2, [("x", 1, 2)], name="R")
    assert ring != "R" and not ring == "R"


def test_duplicate_facts_and_products_collapse_across_documents():
    first = parse_clean('space X { dim 3; known cat = 1 from "s"; }\nproduct P = X * X;')
    again = parse_clean('known X cat = 1 from "s";\nproduct P = X * X;\nspace P { dim 6; }')
    catalog = link([first, again, parse_clean('known X cat = 1 from "s";')])
    assert catalog.facts == (KnownFact("X", "cat", "exact", 1, "s"),)
    assert catalog.products == (ProductDecl("P", "X", "X"),)


def test_declarations_are_hashable_and_hold_no_mutable_field():
    docs = parse_sources(read_sources())
    catalog = link(docs)
    decls = [d for doc in docs for d in doc.declarations]
    parsed = [d for d in decls if d.kind in ("ring", "space")]
    for decl in parsed + list(catalog.spaces.values()):
        hash(decl)
        for value in decl:
            assert not isinstance(value, (list, dict, set)), (decl.name, value)
            hash(value)
    for decl in parsed:
        if decl.kind == "space":
            linked = catalog.spaces[decl.name]
            assert isinstance(decl.knowns, tuple) and isinstance(decl.stages, tuple)
            assert linked.knowns is decl.knowns and linked.stages is decl.stages
            if decl.decomposition is not None:
                assert decl.decomposition.stages is decl.stages
        else:
            assert isinstance(decl.gens, tuple) and isinstance(decl.rels, tuple)


def test_link_runs_the_bundle_checks_again(monkeypatch):
    seen = []
    check = BundleRecord._check

    def counted(self):
        seen.append(self.base_dim)
        check(self)

    monkeypatch.setattr(BundleRecord, "_check", counted)
    doc = parse_clean(BUNDLE)
    assert seen == [0]
    assert link([doc]).bundles["b"].base_dim == 7
    assert seen == [0, 7]


def test_a_filled_in_copy_is_checked():
    (bundle,) = [d for d in parse_clean(BUNDLE).declarations if d.kind == "bundle"]
    bundle = bundle._replace(d=4, s=0)
    with pytest.raises(ConeError, match="smaller than the cell period"):
        bundle._replace(base_dim=3)
    with pytest.raises(LinkError, match="smaller than the cell period"):
        link([parse_clean(BUNDLE.replace("cells-mod 1 0", "cells-mod 8 0"))])


def test_quoted_fields_round_trip_backslashes_and_quotes():
    text = (
        r'space F { dim 3; stage 1 dim 3 skeleton "d \\ \"q\""; '
        r'known cat = 1 from "c \"q\" \\"; }'
        "\nspace B { dim 7; }\nspace T { dim 10; }\n"
        "bundle b { fiber F; base B; total T; structure-group F; cells-mod 1 0; "
        r'compatibility verified "r \\\" \\"; }'
    )
    doc = parse_clean(text)
    space, _, _, bundle = doc.declarations
    assert space.stages[0].description == 'd \\ "q"'
    assert space.knowns[0].citation == 'c "q" \\'
    assert bundle.certificate.reason == 'r \\" \\'
    again = parse_clean(render(doc))
    assert again.declarations == doc.declarations
    assert render(again) == render(doc)


@given(st.text(st.characters(blacklist_characters="\n")))
def test_quote_is_the_inverse_of_the_lexer(text):
    tokens, diags, _ = _lex(_quote(text))
    assert diags == []
    assert tokens == [_quote(text), ""]
    assert _value(tokens[0]) == text


def test_the_corpus_survives_render_and_parse():
    # record equality now covers the parsed presentations and decompositions
    docs = parse_sources(read_sources())
    again = [parse_clean(render(doc)) for doc in docs]
    for doc, new in zip(docs, again):
        assert new.declarations == doc.declarations
    assert link(again) == link(docs)
