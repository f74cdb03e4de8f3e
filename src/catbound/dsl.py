"""Line-oriented declaration language for rings, spaces, bundles and facts.

Grammar (statements end with ';', blocks use braces, '#' comments to EOL):

    document    := declaration*
    declaration := ring | space | bundle | product | known
    ring        := "ring" NAME "over" MODULUS "{" (gen | rel)* "}"
    gen         := "gen" NAME ":" "deg" INT attr* ";"
    attr        := "trunc" INT | "exterior" | "weight" INT
    rel         := "rel" NAME "^" INT "=" target ";"
    target      := "0" | [INT "*"] power ("*" power)*
    power       := NAME ["^" INT]
    space       := "space" NAME "{" space_stmt* "}"
    space_stmt  := "dim" INT ";" | "connectivity" INT ";"
                 | "cohomology" NAME "over" MODULUS ["complete"] ";"
                 | "loopspace-even" ";"
                 | "stage" INT "dim" INT ["skeleton"] STRING ";"
                 | "known" [qual] inv "=" INT "from" STRING ";"
    bundle      := "bundle" NAME "{" bundle_stmt* "}"
    bundle_stmt := "fiber" NAME ";" | "base" NAME ";" | "total" NAME ";"
                 | "structure-group" NAME ";" | "cells-mod" INT INT ";"
                 | "compatibility" cert ";"
    cert        := "skeletal" | "trivial" | "none" | "verified" STRING
    product     := "product" NAME "=" NAME "*" NAME ";"
    known       := "known" [qual] NAME inv "=" INT "from" STRING ";"
    qual        := "lower" | "upper" | "exact"          (default "exact")
    inv         := "cup" | "sigmacat" | "cat" | "Cat" | "wcat"
    MODULUS     := identifier of the form Z/<prime>
    NAME        := letter, then letters, digits, "_", "(", ")", "/", "-"
    INT         := decimal digits: regex \\d, Unicode category Nd
    STRING      := double-quoted, on one line; a backslash escapes '"' or itself

The lexer is one compiled regex.  INT takes exactly the digits int() accepts:
"٣" reads as 3, while a superscript "²" is an unexpected character.  NAME
letters and digits are ASCII.  An integer too long for int() is a diagnostic.

"exterior" is sugar for "trunc 2".  "cells-mod d s" states that the base's
cells sit in dimensions congruent to 0..s mod d.  A top-level "known" names
the space it concerns; inside a space block the space is implicit.

Statements are dispatched on their leading keyword through one table per
block (top level, ring, generator attributes, space, bundle), read by one
block loop.  A single-valued statement or attribute (every one but gen, rel,
stage, known and loopspace-even) may appear once per block; "trunc" and
"exterior" fill the same truncation.  Parsing is total: errors become
diagnostics with line and column, the offending declaration is dropped
whole, and parsing resumes after the closing brace of the block the error
occurred in, or, for an error outside a block, at the next declaration
keyword.  A block missing its "}" therefore takes the declarations after it
down with it, still with one diagnostic.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .algebra import AlgebraError, Generator, RingPresentation, Substitution
from .cones import (
    BundleRecord,
    CompatibilityCertificate,
    ConeDecomposition,
    ConeError,
    ConeStage,
)

INVARIANTS = ("cup", "sigmacat", "cat", "Cat", "wcat")
QUALIFIERS = ("lower", "upper", "exact")


class Diagnostic(NamedTuple):
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class DslError(ValueError):
    """Internal parse failure; its one argument is the Diagnostic it becomes."""


class Token:
    # a __slots__ class, not a tuple: it is smaller, and a large catalog
    # holds tens of thousands of tokens at once
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # ident | int | string | punct | eof
        self.value = value
        self.line = line
        self.col = col


# -- AST -------------------------------------------------------------------
# Each declaration is built once, when its block is read; the linker fills
# in a copy, never the parsed record.


class RingDecl(NamedTuple):
    name: str
    p: int
    gens: tuple[Generator, ...]
    rels: tuple[tuple[str, Substitution], ...]
    # built once by the parser's validation and reused by the linker
    presentation: RingPresentation | None = None

    kind = "ring"


class KnownFact(NamedTuple):
    space: str | None
    invariant: str
    qualifier: str
    value: int
    citation: str

    kind = "fact"


class CohomologyRef(NamedTuple):
    ring: str
    p: int
    complete: bool = False


class SpaceDecl(NamedTuple):
    name: str
    knowns: tuple[KnownFact, ...]
    stages: tuple[ConeStage, ...]
    dim: int | None = None
    connectivity: int | None = None
    cohomology: CohomologyRef | None = None
    loopspace_even: bool = False
    # built by the parser from the stages; a point is a cone tower of length
    # zero, and any other space without stages has none
    decomposition: ConeDecomposition | None = None
    # the presented ring `cohomology` names, filled in by the linker
    ring: RingPresentation | None = None

    kind = "space"


class ProductDecl(NamedTuple):
    total: str
    left: str
    right: str

    kind = "product"


Declaration = RingDecl | SpaceDecl | BundleRecord | ProductDecl | KnownFact


class SourceDocument(NamedTuple):
    path: str | None
    declarations: list[Declaration]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# -- lexer -------------------------------------------------------------------


# One alternative per token kind, tried in order, each taking the blanks
# after it; "bad" takes any character no other alternative accepts, so the
# matches tile the text (blanks at its very start are a match of their own).
# A string body runs to the closing quote or the end of the line.
_TOKEN_RE = re.compile(
    r"""
      [ \t\r]+
    | (?:
        (?P<newline>\n)
      | (?P<comment>\#[^\n]*)
      | "(?P<body>(?:\\["\\]|[^"\n])*)(?P<string>"?)
      | (?P<punct>[{};:=^*])
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_()/\-]*)
      | (?P<bad>.)
      ) [ \t\r]*
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        if kind == "newline":
            line += 1
            line_start = m.start() + 1
            continue
        col = m.start() - line_start + 1
        if kind == "string":
            value = m.group("body")
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            if not m.group("string"):
                diags.append(Diagnostic(line, col, "unterminated string literal"))
            tokens.append(Token("string", value, line, col))
        elif kind == "bad":
            diags.append(Diagnostic(line, col, f"unexpected character {m.group(kind)!r}"))
        else:
            tokens.append(Token(kind, m.group(kind), line, col))
    # The column never advances over a comment, so a comment on the last
    # line leaves the end-of-file column at its "#".
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens, diags


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        self.in_block = False  # inside a braced block; see block

    def peek(self) -> Token:
        # advance() never moves past the final eof token
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> DslError:
        return DslError(Diagnostic(tok.line, tok.col, message))

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            raise self.error(tok, f"expected {value!r}, found {tok.value!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(tok, f"expected {what}, found {tok.value!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value != word:
            raise self.error(tok, f"expected {word!r}, found {tok.value!r}")
        return self.advance()

    def accept(self, word: str) -> bool:
        """Consume the optional keyword `word` if it comes next."""
        tok = self.peek()
        if tok.kind == "ident" and tok.value == word:
            self.advance()
            return True
        return False

    def expect_int(self, what: str = "integer") -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(tok, f"expected {what}, found {tok.value!r}")
        self.advance()
        return self.to_int(tok, tok.value, what)

    def to_int(self, tok: Token, digits: str, what: str) -> int:
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's int-conversion limit
            raise self.error(tok, f"{what} is too long ({len(digits)} digits)") from None

    def expect_string(self, what: str = "string") -> str:
        tok = self.peek()
        if tok.kind != "string":
            raise self.error(tok, f"expected {what}, found {tok.value!r}")
        self.advance()
        return tok.value

    def checked(self, tok: Token, check, *args, **kwargs):
        """check(*args, **kwargs), with a ConeError turned into a diagnostic
        at tok."""
        try:
            return check(*args, **kwargs)
        except ConeError as exc:
            raise self.error(tok, str(exc)) from None

    def skip_declaration(self) -> None:
        """Panic-mode recovery: drop tokens through the closing brace of the
        block the error left open, or, outside a block, until the next
        top-level keyword at brace depth zero."""
        depth = 1 if self.in_block else 0
        self.in_block = False
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct" and tok.value == "{":
                depth += 1
            elif tok.kind == "punct" and tok.value == "}":
                if depth > 0:
                    depth -= 1
                    self.advance()
                    if depth == 0:
                        return
                    continue
            elif depth == 0 and tok.kind == "ident" and tok.value in self.TOP:
                return
            self.advance()

    # -- dispatch ------------------------------------------------------------

    def lookup(self, table: dict, unknown: str):
        """The table entry for the next token, which must be an identifier
        the table holds; otherwise the `unknown` message, formatted with the
        token's text.  Consumes nothing."""
        tok = self.peek()
        entry = table.get(tok.value) if tok.kind == "ident" else None
        if entry is None:
            raise self.error(tok, unknown.format(repr(tok.value)))
        return entry

    def block(self, table, target, kind, name, unknown, close="}") -> set:
        """Statements up to and including the `close` punctuation; returns
        the slots they filled.  The table maps each keyword to (slot,
        handler): a statement with a slot may appear once per block (None:
        it may repeat), and handler(self, keyword_token, target) reads what
        follows the keyword.  Only a braced block opens with "{" and can be
        left unclosed; generator attributes run to the ";".  An error raised
        inside a braced block leaves in_block set, so that recovery skips
        the rest of the block."""
        braced = close == "}"
        if braced:
            self.expect_punct("{")
            self.in_block = True
        filled: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.value == close:
                self.advance()
                if braced:
                    self.in_block = False
                return filled
            if tok.kind == "eof" and braced:
                raise self.error(tok, f"unclosed {kind} block {name!r}")
            slot, handler = self.lookup(table, unknown)
            if slot is not None:
                if slot in filled:
                    raise self.error(tok, f"{kind} {name!r}: repeated {slot}")
                filled.add(slot)
            handler(self, self.advance(), target)

    # -- declarations ------------------------------------------------------

    def parse_document(self, path: str | None) -> SourceDocument:
        decls: list[Declaration] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            try:
                handler = self.lookup(self.TOP, "unknown declaration keyword {}")
                decls.append(handler(self, self.advance()))
            except DslError as exc:
                self.diags.append(exc.args[0])
                if self.peek() is tok:
                    # nothing was consumed; step past the bad token so
                    # recovery always makes progress
                    self.advance()
                self.skip_declaration()
        return SourceDocument(path, decls, self.diags)

    def parse_modulus(self) -> int:
        tok = self.expect_ident("a modulus of the form Z/<p>")
        if not tok.value.startswith("Z/"):
            raise self.error(tok, f"expected a modulus Z/<p>, found {tok.value!r}")
        digits = tok.value[2:]
        if not digits.isdigit():
            raise self.error(tok, f"expected a modulus Z/<p>, found {tok.value!r}")
        return self.to_int(tok, digits, "modulus")

    def parse_ring(self, start: Token) -> RingDecl:
        name = self.expect_ident("ring name").value
        self.expect_keyword("over")
        p = self.parse_modulus()
        parts = {"gens": [], "rels": []}
        unknown = "unknown ring statement {} (expected gen or rel)"
        self.block(self.RING, parts, "ring", name, unknown)
        if not parts["gens"]:
            raise self.error(
                start, f"ring {name!r} must declare at least one generator"
            )
        decl = RingDecl(name, p, tuple(parts["gens"]), tuple(parts["rels"]))
        try:
            return decl._replace(presentation=ring_presentation(decl))
        except AlgebraError as exc:
            raise self.error(start, f"ring {name!r}: {exc}") from None

    def parse_gen(self, _, parts: dict) -> None:
        name = self.expect_ident("generator name").value
        self.expect_punct(":")
        self.expect_keyword("deg")
        degree = self.expect_int("degree")
        attrs: dict[str, int] = {}
        unknown = "unknown generator attribute {}"
        self.block(self.GEN, attrs, "generator", name, unknown, close=";")
        parts["gens"].append(Generator(name, degree, **attrs))

    def gen_trunc(self, _, attrs: dict) -> None:
        attrs["trunc"] = self.expect_int("truncation")

    def gen_exterior(self, _, attrs: dict) -> None:
        attrs["trunc"] = 2

    def gen_weight(self, _, attrs: dict) -> None:
        attrs["weight"] = self.expect_int("weight")

    def parse_rel(self, _, parts: dict) -> None:
        gen = self.expect_ident("generator name").value
        self.expect_punct("^")
        exponent = self.expect_int("exponent")
        self.expect_punct("=")
        coeff = 1
        powers: list[tuple[str, int]] = []
        if self.peek().kind == "int":
            coeff = self.expect_int()
            if coeff == 0:
                self.expect_punct(";")
                parts["rels"].append((gen, Substitution(exponent, 0, ())))
                return
            self.expect_punct("*")
        while True:
            pname = self.expect_ident("generator name").value
            pexp = 1
            if self.peek().kind == "punct" and self.peek().value == "^":
                self.advance()
                pexp = self.expect_int("exponent")
            powers.append((pname, pexp))
            if self.peek().kind == "punct" and self.peek().value == "*":
                self.advance()
                continue
            break
        self.expect_punct(";")
        parts["rels"].append((gen, Substitution(exponent, coeff, tuple(powers))))

    def parse_space(self, start: Token) -> SpaceDecl:
        name = self.expect_ident("space name").value
        fields = {"name": name, "knowns": [], "stages": []}
        self.block(self.SPACE, fields, "space", name, "unknown space statement {}")
        fields["knowns"] = tuple(fields["knowns"])
        fields["stages"] = stages = tuple(fields["stages"])
        if stages or fields.get("dim") == 0:
            fields["decomposition"] = self.checked(
                start, ConeDecomposition, name, stages
            )
        return SpaceDecl(**fields)

    def space_dim(self, _, fields: dict) -> None:
        fields["dim"] = self.expect_int("dimension")
        self.expect_punct(";")

    def space_connectivity(self, _, fields: dict) -> None:
        fields["connectivity"] = self.expect_int("connectivity")
        self.expect_punct(";")

    def space_cohomology(self, _, fields: dict) -> None:
        ring = self.expect_ident("ring name").value
        self.expect_keyword("over")
        p = self.parse_modulus()
        complete = self.accept("complete")
        self.expect_punct(";")
        fields["cohomology"] = CohomologyRef(ring, p, complete)

    def space_loopspace_even(self, _, fields: dict) -> None:
        self.expect_punct(";")
        fields["loopspace_even"] = True

    def space_stage(self, _, fields: dict) -> None:
        index = self.expect_int("stage index")
        self.expect_keyword("dim")
        dim = self.expect_int("stage dimension")
        skeleton = self.accept("skeleton")
        description = self.expect_string("stage description")
        self.expect_punct(";")
        fields["stages"].append(ConeStage(index, dim, description, skeleton))

    def space_known(self, keyword: Token, fields: dict) -> None:
        fields["knowns"].append(self.parse_known(keyword, space=fields["name"]))

    def parse_known(self, _, space: str | None = None) -> KnownFact:
        """A known fact: inside a space block `space` names it; at top level
        (`space` None) the fact names its space after the qualifier."""
        qualifier = "exact"
        if self.peek().kind == "ident" and self.peek().value in QUALIFIERS:
            qualifier = self.advance().value
        if space is None:
            tok = self.peek()
            if (
                tok.kind == "ident"
                and tok.value in INVARIANTS
                and self.tokens[self.pos + 1].kind == "punct"
                and self.tokens[self.pos + 1].value == "="
            ):
                raise self.error(
                    tok, "a top-level known fact must name the space it concerns"
                )
            space = self.expect_ident("space name").value
        tok = self.peek()
        if tok.kind != "ident" or tok.value not in INVARIANTS:
            raise self.error(
                tok,
                f"expected an invariant {'/'.join(INVARIANTS)}, found {tok.value!r}",
            )
        invariant = self.advance().value
        self.expect_punct("=")
        value = self.expect_int("value")
        self.expect_keyword("from")
        citation = self.expect_string("citation")
        self.expect_punct(";")
        return KnownFact(space, invariant, qualifier, value, citation)

    def parse_bundle(self, start: Token) -> BundleRecord:
        name = self.expect_ident("bundle name").value
        fields: dict[str, object] = {}
        unknown = "unknown bundle statement {}"
        filled = self.block(self.BUNDLE, fields, "bundle", name, unknown)
        for slot in ("fiber", "base", "total", "structure-group", "cells-mod"):
            if slot not in filled:
                raise self.error(start, f"bundle {name!r} is missing {slot}")
        return self.checked(start, BundleRecord, name, **fields)

    def bundle_space(self, keyword: Token, fields: dict) -> None:
        role = keyword.value
        fields[role.replace("-", "_")] = self.expect_ident(f"{role} space name").value
        self.expect_punct(";")

    def bundle_cells_mod(self, _, fields: dict) -> None:
        fields["d"] = self.expect_int("period d")
        fields["s"] = self.expect_int("residue bound s")
        self.expect_punct(";")

    def bundle_compatibility(self, _, fields: dict) -> None:
        kind_tok = self.expect_ident("certificate kind")
        reason = ""
        if kind_tok.value == "verified":
            reason = self.expect_string("justification")
        fields["certificate"] = self.checked(
            kind_tok, CompatibilityCertificate, kind_tok.value, reason
        )
        self.expect_punct(";")

    def parse_product(self, _) -> ProductDecl:
        total = self.expect_ident("space name").value
        self.expect_punct("=")
        left = self.expect_ident("factor name").value
        self.expect_punct("*")
        right = self.expect_ident("factor name").value
        self.expect_punct(";")
        return ProductDecl(total, left, right)

    # One keyword table per block.  Top-level handlers take the keyword token
    # and return the declaration; block entries are (slot, handler), see block.
    TOP = {
        "ring": parse_ring,
        "space": parse_space,
        "bundle": parse_bundle,
        "product": parse_product,
        "known": parse_known,
    }
    RING = {"gen": (None, parse_gen), "rel": (None, parse_rel)}
    GEN = {
        "trunc": ("truncation", gen_trunc),
        "exterior": ("truncation", gen_exterior),
        "weight": ("weight", gen_weight),
    }
    SPACE = {
        "dim": ("dim", space_dim),
        "connectivity": ("connectivity", space_connectivity),
        "cohomology": ("cohomology", space_cohomology),
        "loopspace-even": (None, space_loopspace_even),
        "stage": (None, space_stage),
        "known": (None, space_known),
    }
    BUNDLE = {
        "fiber": ("fiber", bundle_space),
        "base": ("base", bundle_space),
        "total": ("total", bundle_space),
        "structure-group": ("structure-group", bundle_space),
        "cells-mod": ("cells-mod", bundle_cells_mod),
        "compatibility": ("compatibility", bundle_compatibility),
    }


def parse(text: str, path: str | None = None) -> SourceDocument:
    """Parse a document.  Total: every failure lands in diagnostics."""
    tokens, lex_diags = _lex(text)
    parser = _Parser(tokens, lex_diags)
    return parser.parse_document(path)


def ring_presentation(decl: RingDecl) -> RingPresentation:
    """Build the algebra object a ring declaration denotes (validating it)."""
    subs: dict[str, Substitution] = {}
    for gen, sub in decl.rels:
        if gen in subs:
            raise AlgebraError(f"two relations on generator {gen!r}")
        subs[gen] = sub
    return RingPresentation(
        decl.p,
        decl.gens,
        substitutions=subs,
        name=decl.name,
    )


# -- renderer ----------------------------------------------------------------


def _quote(text: str) -> str:
    """text as a STRING literal: the inverse of the lexer's _ESCAPE_RE."""
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
