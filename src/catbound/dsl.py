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

The lexer is one findall of one compiled regex, which also skips blanks,
newlines and comments and tries the commonest token kind, NAME, first.  A
token is a plain str, its own source text: a STRING keeps its quotes, and
"" ends the text.  Tokens carry no position; line and column are found
only for a diagnostic, in a position table built from a finditer of the
same regex, at most once per document.  INT takes exactly the digits int()
accepts: "٣" reads as 3, while a superscript "²" is an unexpected
character.  NAME letters and digits are ASCII.  An integer too long for
int() is a diagnostic.

"exterior" is sugar for "trunc 2".  "cells-mod d s" states that the base's
cells sit in dimensions congruent to 0..s mod d.  A top-level "known" names
the space it concerns; inside a space block the space is implicit.

Statements are dispatched on their leading keyword through one table per
block (top level, ring, space, bundle), read by one block loop; a
generator reads its attributes in its own loop.  A single-valued statement
or attribute (every one but gen, rel, stage, known and loopspace-even) may
appear once per block; "trunc" and "exterior" fill the same truncation.
Parsing is total: errors become diagnostics with line and column, listed
in source order, the offending declaration is dropped whole, and parsing
resumes after the closing brace of the block the error occurred in, or,
for an error outside a block, at the next declaration keyword.  A block
missing its "}" therefore takes the declarations after it down with it,
still with one diagnostic.
"""

from __future__ import annotations

import re

from .algebra import AlgebraError, Generator, RingPresentation, Substitution
from .cones import (
    BundleRecord,
    CompatibilityCertificate,
    ConeDecomposition,
    ConeError,
    ConeStage,
)
from .record import Record, _tuple_new

INVARIANTS = ("cup", "sigmacat", "cat", "Cat", "wcat")
QUALIFIERS = ("lower", "upper", "exact")


class Diagnostic(Record):
    __slots__ = ()

    def __new__(cls, line, col, message):
        return _tuple_new(cls, (line, col, message))

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class DslError(ValueError):
    """Internal parse failure; its one argument is the Diagnostic it becomes."""


# -- AST -------------------------------------------------------------------
# Each declaration is built once, when its block is read; the linker fills
# in a copy, never the parsed record.


class RingDecl(Record):
    __slots__ = ()
    kind = "ring"

    # presentation: built with the record by the parser's validation, reused
    # by the linker
    def __new__(cls, name, p, gens, rels, presentation):
        return _tuple_new(cls, (name, p, gens, rels, presentation))


class KnownFact(Record):
    __slots__ = ()
    kind = "fact"

    def __new__(cls, space, invariant, qualifier, value, citation):
        return _tuple_new(cls, (space, invariant, qualifier, value, citation))


class CohomologyRef(Record):
    __slots__ = ()

    def __new__(cls, ring, p, complete=False):
        return _tuple_new(cls, (ring, p, complete))


class SpaceDecl(Record):
    __slots__ = ()
    kind = "space"

    # decomposition: built by the parser from the stages; a point is a cone
    # tower of length zero, and any other space without stages has none.
    # ring: the presented ring `cohomology` names, filled in by the linker.
    def __new__(
        cls, name, knowns, stages, dim=None, connectivity=None, cohomology=None,
        loopspace_even=False, decomposition=None, ring=None,
    ):
        fields = (name, knowns, stages, dim, connectivity, cohomology,
                  loopspace_even, decomposition, ring)
        return _tuple_new(cls, fields)


class ProductDecl(Record):
    __slots__ = ()
    kind = "product"

    def __new__(cls, total, left, right):
        return _tuple_new(cls, (total, left, right))


Declaration = RingDecl | SpaceDecl | BundleRecord | ProductDecl | KnownFact


class SourceDocument(Record):
    __slots__ = ()

    def __new__(cls, path, declarations, diagnostics):
        return _tuple_new(cls, (path, declarations, diagnostics))


# -- lexer -------------------------------------------------------------------


# Blanks, newlines and comments, then one token in the only group: an
# identifier, a punctuation mark, an integer, a string (to its closing quote
# or the end of the line), any other character (a bad one), or, at the end
# of the text and only there, nothing.  So findall gives the tokens as their
# own text, then "" (twice when blanks or a comment end the text).  The first
# four start with different characters, so their order, commonest first, sets
# only the speed.  re turns a loop over a group far slower than one over a
# character class: the comment loop starts only at a "#", and a string body's
# group turns once per backslash.  Possessive quantifiers would need 3.11.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]* (?: \#[^\n]* (?: \n[ \t\r\n]* \#[^\n]* )* [ \t\r\n]* | )
    (   [A-Za-z][A-Za-z0-9_()/\-]*
      | [{};:=^*]
      | \d+
      | "[^"\n\\]* (?: \\["\\]? [^"\n\\]* )* "?
      | .
      |
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_STARTS = _LETTERS | frozenset('{};:=^*"')  # what starts a token but an integer


def _closed(tok: str) -> bool:
    """Whether a string token ends in its closing quote, that is in a '"'
    after an even run of backslashes."""
    if len(tok) < 2 or tok[-1] != '"':
        return False
    return tok[-2] != "\\" or (len(tok) - len(tok[:-1].rstrip("\\"))) % 2 == 1


def _value(tok: str) -> str:
    """What a token stands for: a string's body, unescaped, or the text of
    any other token."""
    if tok[:1] != '"':
        return tok
    body = tok[1:-1] if _closed(tok) else tok[1:]
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


def _lex(text: str) -> tuple[list[str], list[Diagnostic], list[tuple[int, int]] | None]:
    """The tokens of text, ending in "", the lexer's diagnostics, and the
    tokens' positions if the diagnostics needed them (None otherwise).
    An unterminated string is kept as a token; a bad character is not."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()  # the end of the text is one token
    # Unterminated strings and characters that start no token, looked for
    # among the distinct tokens.
    faults = {
        tok
        for tok in set(tokens)
        if (len(tok) == 1 and tok not in _STARTS and not tok.isdecimal())
        or (tok[:1] == '"' and not _closed(tok))
    }
    if not faults:
        return tokens, [], None
    kept: list[str] = []
    diags: list[Diagnostic] = []
    positions: list[tuple[int, int]] = []
    for tok, (line, col) in zip(tokens, _position_table(text)):
        if tok in faults:
            if tok[:1] != '"':
                diags.append(Diagnostic(line, col, f"unexpected character {tok!r}"))
                continue
            diags.append(Diagnostic(line, col, "unterminated string literal"))
        kept.append(tok)
        positions.append((line, col))
    return kept, diags, positions


def _position_table(text: str) -> list[tuple[int, int]]:
    """The (line, col) of every token findall gives, the single "" at the
    end included.  Built only for a diagnostic, at most once per document."""
    table: list[tuple[int, int]] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        skipped, start = m.start(), m.start(1)
        newline = text.rfind("\n", skipped, start)
        if newline >= 0:
            line += text.count("\n", skipped, start)
            line_start = newline + 1
        at_end = not m.group(1)
        if at_end:
            # The column never advances over a comment, so a comment on the
            # last line leaves the end-of-file column at its "#".
            comment = text.find("#", max(skipped, line_start), start)
            if comment >= 0:
                start = comment
        table.append((line, start - line_start + 1))
        if at_end:
            break  # the end of the text is one token
    return table


# -- parser ------------------------------------------------------------------
# A token is a plain str, and a token test is one comparison: tok == ";",
# table.get(tok), tok[:1] in _LETTERS (identifier), tok[:1].isdecimal()
# (integer), tok[:1] == '"' (string), not tok (end of text).  Handlers and
# errors take a token's index in the list, never its line and column.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.diags, self.positions = _lex(text)
        self.pos = 0
        self.in_block = False  # inside a braced block; see block

    def error(self, at: int, message: str) -> DslError:
        """The diagnostic for the token at index `at`."""
        if self.positions is None:
            self.positions = _position_table(self.text)
        line, col = self.positions[at]
        return DslError(Diagnostic(line, col, message))

    def found(self, what: str) -> DslError:
        """`expected what, found ...` at the next token."""
        tok = self.tokens[self.pos]
        return self.error(self.pos, f"expected {what}, found {_value(tok)!r}")

    def expect(self, word: str) -> None:
        """Consume the punctuation mark or keyword `word`."""
        if self.tokens[self.pos] != word:
            raise self.found(repr(word))
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _LETTERS:
            raise self.found(what)
        self.pos += 1
        return tok

    def accept(self, word: str) -> bool:
        """Consume the optional keyword `word` if it comes next."""
        if self.tokens[self.pos] == word:
            self.pos += 1
            return True
        return False

    def expect_int(self, what: str = "integer") -> int:
        tok = self.tokens[self.pos]
        try:  # int() takes no other token, so one call tests and converts
            value = int(tok)
        except ValueError:  # not an integer, or beyond the int-conversion limit
            if not tok[:1].isdecimal():
                raise self.found(what) from None
            raise self.error(self.pos, f"{what} is too long ({len(tok)} digits)") from None
        self.pos += 1
        return value

    def expect_string(self, what: str = "string") -> str:
        tok = self.tokens[self.pos]
        if tok[:1] != '"':
            raise self.found(what)
        self.pos += 1
        return _value(tok)

    def checked(self, at: int, check, *args, **kwargs):
        """check(*args, **kwargs), with a ConeError turned into a diagnostic
        at the token at index `at`."""
        try:
            return check(*args, **kwargs)
        except ConeError as exc:
            raise self.error(at, str(exc)) from None

    def skip_declaration(self) -> None:
        """Panic-mode recovery: drop tokens through the closing brace of the
        block the error left open, or, outside a block, until the next
        top-level keyword at brace depth zero."""
        depth = 1 if self.in_block else 0
        self.in_block = False
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if not tok:
                return
            if tok == "{":
                depth += 1
            elif tok == "}":
                if depth > 0:
                    depth -= 1
                    self.pos += 1
                    if depth == 0:
                        return
                    continue
            elif depth == 0 and tok in self.TOP:
                return
            self.pos += 1

    # -- dispatch ------------------------------------------------------------

    def unknown(self, message: str) -> DslError:
        """`message`, formatted with the next token's value, at that token:
        the token is not a keyword the block's table holds."""
        tok = self.tokens[self.pos]
        return self.error(self.pos, message.format(repr(_value(tok))))

    def block(self, table, target, kind, name, unknown) -> set:
        """A braced block of statements; returns the slots they filled.  The
        table maps each keyword to (slot, handler): a statement with a slot
        may appear once per block (None: it may repeat), and handler(self,
        keyword_index, target) reads what follows the keyword.  An error
        raised inside the block leaves in_block set, so that recovery skips
        the rest of the block."""
        self.expect("{")
        self.in_block = True
        filled: set[str] = set()
        tokens = self.tokens
        while True:
            at = self.pos
            tok = tokens[at]
            if tok == "}":
                self.pos = at + 1
                self.in_block = False
                return filled
            entry = table.get(tok)
            if entry is None:
                if not tok:
                    raise self.error(at, f"unclosed {kind} block {name!r}")
                raise self.unknown(unknown)
            slot, handler = entry
            if slot is not None:
                if slot in filled:
                    raise self.error(at, f"{kind} {name!r}: repeated {slot}")
                filled.add(slot)
            self.pos = at + 1
            handler(self, at, target)

    # -- declarations ------------------------------------------------------

    def parse_document(self, path: str | None) -> SourceDocument:
        decls: list[Declaration] = []
        while self.tokens[self.pos]:
            at = self.pos
            try:
                handler = self.TOP.get(self.tokens[at])
                if handler is None:
                    raise self.unknown("unknown declaration keyword {}")
                self.pos = at + 1
                decls.append(handler(self, at))
            except DslError as exc:
                self.diags.append(exc.args[0])
                if self.pos == at:
                    # nothing was consumed; step past the bad token so
                    # recovery always makes progress
                    self.pos += 1
                self.skip_declaration()
        # in source order; a stable sort keeps the lexer's diagnostic, which
        # comes first in the list, before the parser's at the same token
        self.diags.sort(key=lambda d: (d.line, d.col))
        return SourceDocument(path, decls, self.diags)

    def parse_modulus(self) -> int:
        """"over" and a modulus Z/<p>."""
        self.expect("over")
        at = self.pos
        tok = self.expect_ident("a modulus of the form Z/<p>")
        digits = tok[2:]
        if not tok.startswith("Z/") or not digits.isdigit():
            raise self.error(at, f"expected a modulus Z/<p>, found {tok!r}")
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's int-conversion limit
            raise self.error(at, f"modulus is too long ({len(digits)} digits)") from None

    def parse_ring(self, start: int) -> RingDecl:
        name = self.expect_ident("ring name")
        p = self.parse_modulus()
        parts = {"gens": [], "rels": []}
        unknown = "unknown ring statement {} (expected gen or rel)"
        self.block(self.RING, parts, "ring", name, unknown)
        if not parts["gens"]:
            raise self.error(
                start, f"ring {name!r} must declare at least one generator"
            )
        fields = (name, p, tuple(parts["gens"]), tuple(parts["rels"]))
        try:
            return RingDecl(*fields, ring_presentation(fields))
        except AlgebraError as exc:
            raise self.error(start, f"ring {name!r}: {exc}") from None

    def parse_gen(self, _, parts: dict) -> None:
        name = self.expect_ident("generator name")
        self.expect(":")
        self.expect("deg")
        degree = self.expect_int("degree")
        trunc = weight = None
        while (tok := self.tokens[self.pos]) != ";":
            at = self.pos
            if tok == "exterior" or tok == "trunc":
                if trunc is not None:
                    raise self.error(at, f"generator {name!r}: repeated truncation")
                self.pos = at + 1
                trunc = 2 if tok == "exterior" else self.expect_int("truncation")
            elif tok == "weight":
                if weight is not None:
                    raise self.error(at, f"generator {name!r}: repeated weight")
                self.pos = at + 1
                weight = self.expect_int("weight")
            else:
                raise self.unknown("unknown generator attribute {}")
        self.pos += 1
        weight = 1 if weight is None else weight
        parts["gens"].append(Generator(name, degree, trunc, weight))

    def parse_rel(self, _, parts: dict) -> None:
        gen = self.expect_ident("generator name")
        self.expect("^")
        exponent = self.expect_int("exponent")
        self.expect("=")
        coeff = 1
        powers: list[tuple[str, int]] = []
        if self.tokens[self.pos][:1].isdecimal():
            coeff = self.expect_int()
            if coeff == 0:
                self.expect(";")
                parts["rels"].append((gen, Substitution(exponent, 0, ())))
                return
            self.expect("*")
        while True:
            pname = self.expect_ident("generator name")
            pexp = self.expect_int("exponent") if self.accept("^") else 1
            powers.append((pname, pexp))
            if not self.accept("*"):
                break
        self.expect(";")
        parts["rels"].append((gen, Substitution(exponent, coeff, tuple(powers))))

    def parse_space(self, start: int) -> SpaceDecl:
        name = self.expect_ident("space name")
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
        self.expect(";")

    def space_connectivity(self, _, fields: dict) -> None:
        fields["connectivity"] = self.expect_int("connectivity")
        self.expect(";")

    def space_cohomology(self, _, fields: dict) -> None:
        ring = self.expect_ident("ring name")
        p = self.parse_modulus()
        complete = self.accept("complete")
        self.expect(";")
        fields["cohomology"] = CohomologyRef(ring, p, complete)

    def space_loopspace_even(self, _, fields: dict) -> None:
        self.expect(";")
        fields["loopspace_even"] = True

    def space_stage(self, _, fields: dict) -> None:
        index = self.expect_int("stage index")
        self.expect("dim")
        dim = self.expect_int("stage dimension")
        skeleton = self.accept("skeleton")
        description = self.expect_string("stage description")
        self.expect(";")
        fields["stages"].append(ConeStage(index, dim, description, skeleton))

    def space_known(self, keyword: int, fields: dict) -> None:
        fields["knowns"].append(self.parse_known(keyword, space=fields["name"]))

    def parse_known(self, _, space: str | None = None) -> KnownFact:
        """A known fact: inside a space block `space` names it; at top level
        (`space` None) the fact names its space after the qualifier."""
        qualifier = "exact"
        if self.tokens[self.pos] in QUALIFIERS:
            qualifier = self.expect_ident()
        if space is None:
            if (
                self.tokens[self.pos] in INVARIANTS
                and self.tokens[self.pos + 1] == "="
            ):
                raise self.error(
                    self.pos, "a top-level known fact must name the space it concerns"
                )
            space = self.expect_ident("space name")
        if self.tokens[self.pos] not in INVARIANTS:
            raise self.found(f"an invariant {'/'.join(INVARIANTS)}")
        invariant = self.expect_ident()
        self.expect("=")
        value = self.expect_int("value")
        self.expect("from")
        citation = self.expect_string("citation")
        self.expect(";")
        return KnownFact(space, invariant, qualifier, value, citation)

    def parse_bundle(self, start: int) -> BundleRecord:
        name = self.expect_ident("bundle name")
        fields: dict[str, object] = {}
        unknown = "unknown bundle statement {}"
        filled = self.block(self.BUNDLE, fields, "bundle", name, unknown)
        for slot in ("fiber", "base", "total", "structure-group", "cells-mod"):
            if slot not in filled:
                raise self.error(start, f"bundle {name!r} is missing {slot}")
        return self.checked(start, BundleRecord, name, **fields)

    def bundle_space(self, keyword: int, fields: dict) -> None:
        role = self.tokens[keyword]
        fields[role.replace("-", "_")] = self.expect_ident(f"{role} space name")
        self.expect(";")

    def bundle_cells_mod(self, _, fields: dict) -> None:
        fields["d"] = self.expect_int("period d")
        fields["s"] = self.expect_int("residue bound s")
        self.expect(";")

    def bundle_compatibility(self, _, fields: dict) -> None:
        at = self.pos
        kind = self.expect_ident("certificate kind")
        reason = self.expect_string("justification") if kind == "verified" else ""
        fields["certificate"] = self.checked(
            at, CompatibilityCertificate, kind, reason
        )
        self.expect(";")

    def parse_product(self, _) -> ProductDecl:
        total = self.expect_ident("space name")
        self.expect("=")
        left = self.expect_ident("factor name")
        self.expect("*")
        right = self.expect_ident("factor name")
        self.expect(";")
        return ProductDecl(total, left, right)

    # One keyword table per block.  Top-level handlers take the keyword's
    # token index and return the declaration; block entries are (slot,
    # handler), see block.
    TOP = {
        "ring": parse_ring,
        "space": parse_space,
        "bundle": parse_bundle,
        "product": parse_product,
        "known": parse_known,
    }
    RING = {"gen": (None, parse_gen), "rel": (None, parse_rel)}
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
    return _Parser(text).parse_document(path)


def ring_presentation(decl: RingDecl | tuple) -> RingPresentation:
    """Build the algebra object a ring declaration denotes (validating it)
    from its first four fields, which the parser passes as a plain tuple."""
    name, p, gens, rels = decl[:4]
    subs: dict[str, Substitution] = {}
    for gen, sub in rels:
        if gen in subs:
            raise AlgebraError(f"two relations on generator {gen!r}")
        subs[gen] = sub
    return RingPresentation(p, gens, substitutions=subs, name=name)
