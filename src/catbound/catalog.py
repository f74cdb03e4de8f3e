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
documents as they are, filling in copies of the records: a space's through
`_make`, a bundle's through `_replace`.  Both go through the record's
constructor, so the bundle's copy is checked again.
"""

from __future__ import annotations

from collections.abc import Iterable

from .algebra import RingPresentation
from .cones import BundleRecord, ConeError
from .dsl import KnownFact, ProductDecl, SourceDocument, SpaceDecl
from .record import Record, _tuple_new


class LinkError(ValueError):
    pass


class Catalog(Record):
    __slots__ = ()

    def __new__(cls, rings, spaces, bundles, products, facts):
        return _tuple_new(cls, (rings, spaces, bundles, products, facts))


def _dims_add(where: str, total: SpaceDecl, one: SpaceDecl, other: SpaceDecl) -> None:
    """Refuse dim(total) > dim(one) + dim(other), when all three are declared."""
    dims = (total.dim, one.dim, other.dim)
    if None not in dims and dims[0] > dims[1] + dims[2]:
        raise LinkError(
            f"{where}: total {total.name!r} has dim {dims[0]}, above "
            f"dim {one.name!r} + dim {other.name!r} = {dims[1]} + {dims[2]}"
        )


def link(docs: Iterable[SourceDocument]) -> Catalog:
    # every declaration filed under its kind, in the order it is met
    filed: dict[str, list] = {
        kind: [] for kind in ("ring", "space", "bundle", "fact", "product")
    }
    named: dict[str, str] = {}

    for doc in docs:
        for decl in doc.declarations:
            if decl.kind in ("ring", "space", "bundle"):
                if decl.name in named:
                    raise LinkError(
                        f"duplicate declaration of {decl.name!r} "
                        f"(already declared as a {named[decl.name]})"
                    )
                named[decl.name] = decl.kind
            filed[decl.kind].append(decl)

    rings = {decl.name: decl.presentation for decl in filed["ring"]}
    spaces: dict[str, SpaceDecl] = {}
    for decl in filed["space"]:
        name = decl.name
        if decl.cohomology is not None:
            ref = decl.cohomology
            ring = rings.get(ref.ring)
            if ring is None:
                raise LinkError(
                    f"space {name!r} refers to undeclared ring {ref.ring!r}"
                )
            if ring.p != ref.p:
                raise LinkError(
                    f"space {name!r} states cohomology over Z/{ref.p} but "
                    f"ring {ref.ring!r} is presented over Z/{ring.p}"
                )
            decl = SpaceDecl._make(decl[:-1] + (ring,))  # ring: the last field
            # H^k = 0 above the dimension, so no nonzero product lies there
            top = ring.top_degree()
            if decl.dim is not None and top > decl.dim:
                raise LinkError(
                    f"space {name!r}: ring {ref.ring!r} has top degree {top}, "
                    f"above the space dim {decl.dim}"
                )
            # and H^k = 0 for 0 < k <= the connectivity, so no generator lies there
            for g in ring.generators:
                if g.degree <= (decl.connectivity or 0):
                    raise LinkError(
                        f"space {name!r}: ring {ref.ring!r} has generator {g.name!r} "
                        f"in degree {g.degree}, within the space connectivity "
                        f"{decl.connectivity}"
                    )
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
        spaces[name] = decl
        filed["fact"].extend(decl.knowns)

    def space(ref: str, where: str, tail: str = " is not a declared space") -> SpaceDecl:
        """The space named ref; a LinkError `where ref tail` if none is."""
        if ref not in spaces:
            raise LinkError(f"{where}{ref!r}{tail}")
        return spaces[ref]

    bundles: dict[str, BundleRecord] = {}
    for decl in filed["bundle"]:
        name = decl.name
        fiber = space(decl.fiber, f"bundle {name!r}: fiber ")
        base = space(decl.base, f"bundle {name!r}: base ")
        total = space(decl.total, f"bundle {name!r}: total ")
        if decl.structure_group != "trivial":
            space(
                decl.structure_group,
                f"bundle {name!r}: structure group ",
                " is not a declared space (or the literal trivial)",
            )
        if base.dim is None:
            raise LinkError(
                f"bundle {name!r}: base {decl.base!r} has no declared dim"
            )
        try:
            record = decl._replace(
                base_dim=base.dim, fiber_decomposition=fiber.decomposition
            )
        except ConeError as exc:
            raise LinkError(str(exc)) from None
        if (base.connectivity or 0) < decl.d - 1:
            raise LinkError(
                f"bundle {name!r}: cells-mod {decl.d} needs a "
                f"{decl.d - 1}-connected base"
            )
        _dims_add(f"bundle {name!r}", total, fiber, base)
        bundles[name] = record

    for fact in filed["fact"]:
        space(fact.space, "known fact refers to undeclared space ", "")
    for prod in filed["product"]:
        _dims_add(
            "product statement",
            space(prod.total, "product statement: total "),
            space(prod.left, "product statement: left factor "),
            space(prod.right, "product statement: right factor "),
        )
    # records sort as tuples of their fields; duplicates collapse
    facts = tuple(sorted(set(filed["fact"])))
    products = tuple(sorted(set(filed["product"])))
    return Catalog(rings, spaces, bundles, products, facts)
