"""Cross-document name resolution.

Declarations may be split across any number of documents in any order;
linking gathers them all first and then resolves names, so the result does
not depend on declaration order.  Rings, spaces and bundles share one
namespace; known facts and product statements describe already-named things
and are kept as sorted tuples.

The catalog holds the records the parser built: each ring's presentation,
and the space and bundle records with their cross-references filled in (a
space's presented ring, a bundle's base dimension and fibre decomposition).
Linking only resolves names and checks cross-references; it leaves the parsed
documents as they are, filling records in through dataclasses.replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .algebra import RingPresentation
from .cones import BundleRecord, ConeError
from .dsl import KnownFact, ProductDecl, RingDecl, SourceDocument, SpaceDecl


class LinkError(ValueError):
    pass


@dataclass
class Catalog:
    rings: dict[str, RingPresentation] = field(default_factory=dict)
    spaces: dict[str, SpaceDecl] = field(default_factory=dict)
    bundles: dict[str, BundleRecord] = field(default_factory=dict)
    products: tuple[ProductDecl, ...] = ()
    facts: tuple[KnownFact, ...] = ()


def link(docs: Iterable[SourceDocument]) -> Catalog:
    ring_decls: dict[str, RingDecl] = {}
    space_decls: dict[str, SpaceDecl] = {}
    bundle_decls: dict[str, BundleRecord] = {}
    fact_decls: list[KnownFact] = []
    product_decls: list[ProductDecl] = []
    named: dict[str, str] = {}

    for doc in docs:
        for decl in doc.declarations:
            if isinstance(decl, KnownFact):
                fact_decls.append(decl)
                continue
            if isinstance(decl, ProductDecl):
                product_decls.append(decl)
                continue
            if decl.name in named:
                raise LinkError(
                    f"duplicate declaration of {decl.name!r} "
                    f"(already declared as a {named[decl.name]})"
                )
            named[decl.name] = decl.kind
            if isinstance(decl, RingDecl):
                ring_decls[decl.name] = decl
            elif isinstance(decl, SpaceDecl):
                space_decls[decl.name] = decl
            else:
                bundle_decls[decl.name] = decl

    catalog = Catalog()
    for name, decl in ring_decls.items():
        catalog.rings[name] = decl.presentation

    for name, decl in space_decls.items():
        if decl.cohomology is not None:
            ref = decl.cohomology
            ring = catalog.rings.get(ref.ring)
            if ring is None:
                raise LinkError(
                    f"space {name!r} refers to undeclared ring {ref.ring!r}"
                )
            if ring.p != ref.p:
                raise LinkError(
                    f"space {name!r} states cohomology over Z/{ref.p} but "
                    f"ring {ref.ring!r} is presented over Z/{ring.p}"
                )
            decl = replace(decl, ring=ring)
        stages = decl.stages
        if stages and decl.dim is not None:
            if stages[-1].attach_dim != decl.dim:
                raise LinkError(
                    f"space {name!r}: final stage has dim "
                    f"{stages[-1].attach_dim}, expected the space dim {decl.dim}"
                )
            for a, b in zip(stages, stages[1:]):
                if b.attach_dim < a.attach_dim:
                    raise LinkError(
                        f"space {name!r}: stage dims must be nondecreasing"
                    )
        catalog.spaces[name] = decl
        fact_decls.extend(decl.knowns)

    for name, decl in bundle_decls.items():
        for role, ref in (
            ("fiber", decl.fiber),
            ("base", decl.base),
            ("total", decl.total),
        ):
            if ref not in catalog.spaces:
                raise LinkError(
                    f"bundle {name!r}: {role} {ref!r} is not a declared space"
                )
        if (
            decl.structure_group != "trivial"
            and decl.structure_group not in catalog.spaces
        ):
            raise LinkError(
                f"bundle {name!r}: structure group {decl.structure_group!r} "
                "is not a declared space (or the literal trivial)"
            )
        base = catalog.spaces[decl.base]
        if base.dim is None:
            raise LinkError(
                f"bundle {name!r}: base {decl.base!r} has no declared dim"
            )
        try:
            record = replace(
                decl,
                base_dim=base.dim,
                fiber_decomposition=catalog.spaces[decl.fiber].decomposition,
            )
        except ConeError as exc:
            raise LinkError(str(exc)) from None
        if (base.connectivity or 0) < decl.d - 1:
            raise LinkError(
                f"bundle {name!r}: cells-mod {decl.d} needs a "
                f"{decl.d - 1}-connected base"
            )
        catalog.bundles[name] = record

    for fact in fact_decls:
        if fact.space not in catalog.spaces:
            raise LinkError(
                f"known fact refers to undeclared space {fact.space!r}"
            )
    catalog.facts = tuple(
        sorted(
            set(fact_decls),
            key=lambda f: (f.space, f.invariant, f.qualifier, f.value, f.citation),
        )
    )

    for prod in product_decls:
        for role, ref in (
            ("total", prod.total),
            ("left factor", prod.left),
            ("right factor", prod.right),
        ):
            if ref not in catalog.spaces:
                raise LinkError(
                    f"product statement: {role} {ref!r} is not a declared space"
                )
    catalog.products = tuple(
        sorted(set(product_decls), key=lambda r: (r.total, r.left, r.right))
    )
    return catalog
