"""The original character-by-character lexer, kept as a test-only reference.

`reference_lex` walks the text one character at a time and returns the
tokens as `(kind, value, line, col)` tuples together with the lexer's
diagnostics.  `catbound.dsl` must produce the same tokens and the same
diagnostics on every text, with one deliberate exception: a character that
`str.isdigit` accepts but `int` rejects (a superscript digit such as "²")
was lexed here as part of an integer and crashed the parser; `catbound.dsl`
reports it as an unexpected character.  Those are exactly the characters
with `str.isdigit()` true and `str.isdecimal()` false, so comparisons leave
them out.

One quirk is kept on purpose: the column never advances over a comment, so
a comment on the last line leaves the end-of-file column at its "#".
"""

from __future__ import annotations

import string

from catbound.dsl import Diagnostic

_IDENT_START = set(string.ascii_letters)
_IDENT_CHARS = set(string.ascii_letters + string.digits + "_()/-")
_PUNCT = set("{};:=^*")

Token = tuple[str, str, int, int]


def reference_lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                buf.append(c)
                i += 1
                col += 1
            if not closed:
                diags.append(
                    Diagnostic(start_line, start_col, "unterminated string literal")
                )
            tokens.append(("string", "".join(buf), start_line, start_col))
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        diags.append(
            Diagnostic(start_line, start_col, f"unexpected character {ch!r}")
        )
        i += 1
        col += 1
    tokens.append(("eof", "", line, col))
    return tokens, diags
