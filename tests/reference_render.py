"""The parser's round-trip renderer, kept as a test-only reference.

No command writes DSL text, so `render` lives beside the tests that use it:
the fuzzer's round trip, the DSL tests and the record tests.
"""

from __future__ import annotations

from catbound.cones import BundleRecord
from catbound.dsl import KnownFact, ProductDecl, RingDecl, SourceDocument, SpaceDecl


def _quote(text: str) -> str:
    """text as a STRING literal: the inverse of catbound.dsl._ESCAPE_RE."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_known(fact: KnownFact, top_level: bool) -> str:
    qual = "" if fact.qualifier == "exact" else f" {fact.qualifier}"
    space = f" {fact.space}" if top_level else ""
    return (
        f"known{qual}{space} {fact.invariant} = {fact.value} "
        f"from {_quote(fact.citation)};"
    )


def render(doc: SourceDocument) -> str:
    """Serialize declarations back to DSL text.  render/parse round-trips to
    structurally equal declarations (sugar is normalized, comments dropped)."""
    out: list[str] = []
    for decl in doc.declarations:
        if isinstance(decl, RingDecl):
            out.append(f"ring {decl.name} over Z/{decl.p} {{")
            for g in decl.gens:
                attrs = ""
                if g.trunc is not None:
                    attrs += f" trunc {g.trunc}"
                if g.weight != 1:
                    attrs += f" weight {g.weight}"
                out.append(f"  gen {g.name} : deg {g.degree}{attrs};")
            for gen, r in decl.rels:
                if r.coeff == 0:
                    rhs = "0"
                else:
                    parts = [
                        name if e == 1 else f"{name}^{e}" for name, e in r.powers
                    ]
                    rhs = " * ".join(parts)
                    if r.coeff != 1:
                        rhs = f"{r.coeff} * {rhs}"
                out.append(f"  rel {gen}^{r.exponent} = {rhs};")
            out.append("}")
        elif isinstance(decl, SpaceDecl):
            out.append(f"space {decl.name} {{")
            if decl.dim is not None:
                out.append(f"  dim {decl.dim};")
            if decl.connectivity is not None:
                out.append(f"  connectivity {decl.connectivity};")
            if decl.cohomology is not None:
                ref = decl.cohomology
                complete = " complete" if ref.complete else ""
                out.append(f"  cohomology {ref.ring} over Z/{ref.p}{complete};")
            if decl.loopspace_even:
                out.append("  loopspace-even;")
            for st in decl.stages:
                skel = " skeleton" if st.skeleton else ""
                desc = _quote(st.description)
                out.append(f"  stage {st.index} dim {st.attach_dim}{skel} {desc};")
            for fact in decl.knowns:
                out.append("  " + _render_known(fact, top_level=False))
            out.append("}")
        elif isinstance(decl, BundleRecord):
            out.append(f"bundle {decl.name} {{")
            out.append(f"  fiber {decl.fiber};")
            out.append(f"  base {decl.base};")
            out.append(f"  total {decl.total};")
            out.append(f"  structure-group {decl.structure_group};")
            out.append(f"  cells-mod {decl.d} {decl.s};")
            cert = decl.certificate
            if cert.kind == "verified":
                out.append(f"  compatibility verified {_quote(cert.reason)};")
            elif cert.kind != "none":
                out.append(f"  compatibility {cert.kind};")
            out.append("}")
        elif isinstance(decl, ProductDecl):
            out.append(f"product {decl.total} = {decl.left} * {decl.right};")
        elif isinstance(decl, KnownFact):
            out.append(_render_known(decl, top_level=True))
        out.append("")
    return "\n".join(out)
