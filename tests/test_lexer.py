"""The regex lexer against the original character-by-character lexer."""

import random

import pytest

from catbound.corpus import read_sources
from catbound.dsl import _lex
from reference_lexer import reference_lex

# Quotes, escapes, comments, every blank, letters the identifier rule
# rejects, a decimal digit outside ASCII ("٣"), and enough of the grammar
# that real tokens form.  No character with str.isdigit() true and
# str.isdecimal() false: those are the one intended difference.
ALPHABET = (
    'aZx_()/-{};:=^*"\\# \t\r\n0123456789٣éß漢.,@!'
)


def lexed(text):
    tokens, diags = _lex(text)
    return [(t.kind, t.value, t.line, t.col) for t in tokens], [str(d) for d in diags]


def reference(text):
    tokens, diags = reference_lex(text)
    return tokens, [str(d) for d in diags]


def test_shipped_corpus_lexes_identically():
    for name, text in read_sources():
        assert lexed(text) == reference(text), name


def test_random_texts_lex_identically():
    rng = random.Random(20261018)
    for _ in range(3000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 40)))
        assert lexed(text) == reference(text), repr(text)


def test_shuffled_corpus_lines_lex_identically():
    rng = random.Random(7)
    lines = [line for _, text in read_sources() for line in text.splitlines(True)]
    for _ in range(50):
        text = "".join(rng.sample(lines, 30))
        cut = rng.randint(0, len(text))
        assert lexed(text[:cut]) == reference(text[:cut])


@pytest.mark.parametrize(
    "text",
    [
        "",
        '"a\\"b',  # unterminated string ending in an escaped quote
        'known cat = 1 from "x\\"\n}',
        '"a\\\\" "b\\c" "\\',
        'space X { dim 3; }  # trailing comment on the last line',
        "# only a comment",
        "ring R\r\n\tover Z/2 {}\n# comment\n",
        "dim ٣٤;",
    ],
)
def test_explicit_cases_lex_identically(text):
    assert lexed(text) == reference(text)


def test_end_of_file_column_sits_at_a_final_comment():
    tokens, _ = _lex("x  # note")
    assert (tokens[-1].kind, tokens[-1].line, tokens[-1].col) == ("eof", 1, 4)
    tokens, _ = _lex("x  # note\n  ")
    assert (tokens[-1].line, tokens[-1].col) == (2, 3)


def test_only_decimal_digits_form_integers():
    tokens, diags = _lex("1² ٣")
    assert [(t.kind, t.value) for t in tokens] == [
        ("int", "1"),
        ("int", "٣"),
        ("eof", ""),
    ]
    assert [str(d) for d in diags] == ["1:2: unexpected character '²'"]
