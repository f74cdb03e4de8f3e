"""The README's Library example, run as written: the block in README.md
must equal EXAMPLE, and each value its comments state must be what it
computes."""

import ast
from pathlib import Path

import catbound

README = Path(__file__).resolve().parents[1] / "README.md"

# Verbatim from the README's "Library" section.
EXAMPLE = """\
from catbound import (
    RingPresentation, cup_length, ganea_check, load_corpus, propagate,
    space_weights, weighted_wgt_lower,
)

so5 = RingPresentation(2, [("x1", 1, 8), ("x3", 3, 2)])
cup_length(so5).value          # 8

catalog = load_corpus()
catalog.spaces["Sp(1)"].decomposition.length   # 1: the parsed space record
catalog.bundles["so5"].base_dim                # 7: the parsed bundle, linked

solution = propagate(catalog)
str(solution.interval("SO(5)", "cat"))   # "8"
ganea_check(solution, "SO(5)").rule      # "cup-equality"
solution.provenance["SO(5)"]             # how each bound was justified

pu3 = catalog.spaces["PU(3)"]
weights = space_weights(pu3.ring, pu3.loopspace_even)   # (1, 2, 1)
weighted_wgt_lower(pu3.ring, weights).value             # 6
"""


def test_the_readme_holds_the_example():
    assert f"## Library\n\n```python\n{EXAMPLE}```\n" in README.read_text(encoding="utf-8")


def test_the_example_gives_the_values_its_comments_state():
    scope = {}
    values = {}
    for statement in ast.parse(EXAMPLE).body:
        code = ast.get_source_segment(EXAMPLE, statement)
        if isinstance(statement, ast.Expr):
            values[code] = eval(code, scope)
        else:
            exec(code, scope)
    assert values.pop('solution.provenance["SO(5)"]')
    assert values == {
        "cup_length(so5).value": 8,
        'catalog.spaces["Sp(1)"].decomposition.length': 1,
        'catalog.bundles["so5"].base_dim': 7,
        'str(solution.interval("SO(5)", "cat"))': "8",
        'ganea_check(solution, "SO(5)").rule': "cup-equality",
        "weighted_wgt_lower(pu3.ring, weights).value": 6,
    }
    assert scope["weights"] == (1, 2, 1)


def test_the_package_exports_the_names_the_example_imports():
    imported = ast.parse(EXAMPLE).body[0]
    assert sorted(catbound.__all__) == sorted(alias.name for alias in imported.names)
