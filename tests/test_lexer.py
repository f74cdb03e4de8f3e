"""The regex lexer against the original character-by-character lexer."""

import random

import pytest

from catbound import dsl
from catbound.corpus import read_sources
from catbound.dsl import _lex, _position_table, _value
from reference_lexer import reference_lex

# Quotes, escapes, comments, every blank, letters the identifier rule
# rejects, a decimal digit outside ASCII ("٣"), and enough of the grammar
# that real tokens form.  No character with str.isdigit() true and
# str.isdecimal() false: those are the one intended difference.
ALPHABET = (
    'aZx_()/-{};:=^*"\\# \t\r\n0123456789٣éß漢.,@!'
)


def kind(tok):
    if not tok:
        return "eof"
    if tok[0] == '"':
        return "string"
    if tok[0] in "{};:=^*":
        return "punct"
    return "int" if tok[0].isdecimal() else "ident"


def lexed(text):
    """The tokens as (kind, value, line, col), rebuilt from the token texts
    and the position table, and the diagnostics as text."""
    tokens, diags, positions = _lex(text)
    if positions is None:
        positions = _position_table(text)
    assert len(positions) == len(tokens)
    return (
        [(kind(t), _value(t), line, col) for t, (line, col) in zip(tokens, positions)],
        [str(d) for d in diags],
    )


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
    tokens, _ = lexed("x  # note")
    assert tokens[-1] == ("eof", "", 1, 4)
    tokens, _ = lexed("x  # note\n  ")
    assert tokens[-1][2:] == (2, 3)


def test_only_decimal_digits_form_integers():
    tokens, diags = lexed("1² ٣")
    assert [t[:2] for t in tokens] == [
        ("int", "1"),
        ("int", "٣"),
        ("eof", ""),
    ]
    assert diags == ["1:2: unexpected character '²'"]


def faulty_document(units):
    """A document of `units` declarations, most of them with one fault (a
    bad character, an unterminated string or a missing ';'), and the
    diagnostics it must give, their columns found in each line's own text,
    in line order."""
    rng = random.Random(17)
    lines, want = [], []
    for k in range(units):
        pad = rng.choice(["", " ", "\t", "  \t "])
        at = len(lines) + 1
        fault = rng.randrange(4)
        if fault == 0:
            text = f"{pad}space B{k} {{ dim 3; @ }}"
            want.append(f"{at}:{text.index('@') + 1}: unexpected character '@'")
        elif fault == 1:
            text = f'{pad}space U{k} {{ stage 1 dim 2 "open;'
            quote = text.index('"') + 1
            want.append(f"{at}:{quote}: unterminated string literal")
            want.append(f"{at + 1}:1: expected ';', found '}}'")
            lines.append(text)
            text = "}"
        elif fault == 2:
            text = f"{pad}space M{k} {{ dim 3 }}"
            want.append(f"{at}:{text.index('}') + 1}: expected ';', found '}}'")
        else:
            text = f'{pad}space C{k} {{ dim 3; }}  # neither @ nor " is a fault here'
        lines.append(text)
    return "\n".join(lines), want


def test_a_document_with_thousands_of_faults_builds_one_position_table(monkeypatch):
    built = []

    def counted(text):
        built.append(len(text))
        return position_table(text)

    position_table = dsl._position_table
    monkeypatch.setattr(dsl, "_position_table", counted)
    text, want = faulty_document(3000)
    assert len(want) > 2000
    doc = dsl.parse(text)
    assert [str(d) for d in doc.diagnostics] == want
    assert {d.name[0] for d in doc.declarations} == {"B", "C"}
    assert built == [len(text)]
    clean = "\n".join(line for line in text.splitlines() if "space C" in line)
    assert dsl.parse(clean).ok
    for _, source in read_sources():
        assert dsl.parse(source).ok
    assert built == [len(text)]


def test_diagnostics_come_in_source_order():
    doc = dsl.parse("space Y { dim 2 }\nspace X { dim 3; @ }")
    assert [str(d) for d in doc.diagnostics] == [
        "1:17: expected ';', found '}'",
        "2:18: unexpected character '@'",
    ]
    # at one token, the lexer's diagnostic stays before the parser's
    doc = dsl.parse('space Z { dim "open')
    assert [str(d) for d in doc.diagnostics] == [
        "1:15: unterminated string literal",
        "1:15: expected dimension, found 'open'",
    ]
