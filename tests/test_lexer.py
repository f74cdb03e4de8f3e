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


def catalog_document(seed, units=60):
    """A document shaped like a generated large catalog: spheres with their
    stage strings and facts, tori, x^2 = y rings, products, bundles with a
    verified compatibility, and comments between the declarations."""
    rng = random.Random(seed)
    out = []
    for u in range(units):
        kind = rng.randrange(5)
        d = rng.randint(1, 600)
        if rng.random() < 0.3:
            out.append(f"# unit {u}, drawn by seed {seed}")
        if kind == 0:
            out.append(
                f"ring S{u}_r over Z/2 {{\n  gen z{u} : deg {d} exterior;\n}}\n\n"
                f"space S{u} {{\n  dim {d};\n  connectivity {d - 1};\n"
                f'  stage 1 dim {d} skeleton "the {d}-sphere";\n'
                f'  known cat = 1 from "spheres have category 1";\n'
                f"  cohomology S{u}_r over Z/2;\n}}"
            )
        elif kind == 1:
            k = rng.randint(2, 5)
            gens = "".join(f"  gen t{u}n{i} : deg 1 exterior;\n" for i in range(k))
            out.append(f"ring T{u}_r over Z/2 {{\n{gens}}}\n\nspace T{u} {{ dim {k}; }}")
        elif kind == 2:
            t = rng.randint(2, 9)
            out.append(
                f"ring Rp{u}_r over Z/2 {{\n  gen x{u} : deg {d};\n"
                f"  gen y{u} : deg {2 * d} trunc {t};\n  rel x{u}^2 = y{u};\n}}"
            )
        elif kind == 3:
            out.append(f"product Q{u} = S{u - 1} * T{u - 2};  # a product")
        else:
            out.append(
                f"bundle b{u} {{\n  fiber F{u};\n  base B{u};\n  total X{u};\n"
                f"  structure-group F{u};\n  cells-mod {d} 0;\n"
                f'  compatibility verified "checked by hand, \\"case {u}\\"";\n}}'
            )
    return "\n\n".join(out) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_catalog_shaped_documents_lex_identically(seed):
    text = catalog_document(seed)
    tokens, diags = lexed(text)
    assert not diags
    assert len(tokens) > 500
    assert (tokens, diags) == reference(text)


def test_a_catalog_shaped_document_with_faults_at_its_end_lexes_identically():
    text = catalog_document(99) + 'space Z { dim 3; @ }\nknown Z cat = 1 from "open'
    tokens, diags = lexed(text)
    assert [d.split(": ", 1)[1] for d in diags] == [
        "unexpected character '@'",
        "unterminated string literal",
    ]
    assert (tokens, diags) == reference(text)


def test_comment_runs_and_backslash_runs_lex_identically():
    # The regex skips a run of comments in one loop entered at its first
    # "#", and reads a string body a run at a time between backslashes:
    # every mix of blanks, comments, quotes and backslash runs of length
    # 0 to 4 before a quote, another character or the end of a line.
    gaps = ["", " ", "\n", "# c\n", "  # c\r\n\t# d\n\n  ", "#\n#", "# c"]
    bodies = [
        "\\" * n + tail for n in range(5) for tail in ('"', "x", "\n", "")
    ]
    for gap in gaps:
        for body in bodies:
            for after in ("", "x", '"y" z', "\n# e"):
                text = f'a{gap}"{body}{after}{gap}b'
                assert lexed(text) == reference(text), repr(text)
