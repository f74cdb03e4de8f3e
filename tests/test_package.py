"""The package ships no test-only code.

Every function and method defined in src/catbound, dunders aside, must be
named somewhere in the package: as a Name, as an Attribute or in an
`__all__` list.  Code that only tests call belongs in tests/, beside the
reference_*.py modules.  The few functions that something outside the
package binds are on UNCALLED, each with the file that binds it; an entry
must still have no caller in the package and still be named in its file,
so the list can only shrink."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "catbound"

#: Dotted name -> the file outside the package that binds it.
UNCALLED = {
    # ring-scaling checks its random rings against the brute-force oracle
    "cup.cup_bruteforce_oracle": "perfbench/run.py",
    # the Library example
    "solver.Solution.interval": "README.md",
    # the walks of items 7 and 21
    "solver.Provenances.inputs": "ROADMAP.md",
    # item 14's signed-algebra row: an `audit` caller or the tracer's exit
    "algebra.RingPresentation.monomial": "ROADMAP.md",
    "algebra.RingPresentation.monomial_word": "ROADMAP.md",
}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name) of each function and method, nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the module reads or binds as a Name or an Attribute,
    and the strings of its `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _uncalled() -> set[str]:
    """Dotted names, module first, of the functions the package never names."""
    trees = {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts):
            ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    named = set().union(*map(_names, trees.values()))
    return {
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in named
    }


def test_every_function_is_named_in_the_package():
    stray = sorted(_uncalled() - set(UNCALLED))
    assert not stray, (
        f"called only from outside the package, if at all: {stray}; "
        "move test-only code to tests/"
    )


def test_every_uncalled_entry_still_has_no_caller_in_the_package():
    called = sorted(set(UNCALLED) - set(_uncalled()))
    assert not called, f"the package names these now; drop them from UNCALLED: {called}"


@pytest.mark.parametrize("dotted", sorted(UNCALLED))
def test_every_uncalled_entry_is_named_in_its_file(dotted):
    name = dotted.rpartition(".")[2]
    text = (ROOT / UNCALLED[dotted]).read_text(encoding="utf-8")
    # `name`, .name( or .name`: a call or a code span, not a word in prose
    assert re.search(rf"[.`]{re.escape(name)}[`(]", text), (
        f"{UNCALLED[dotted]} no longer names {dotted}; drop it from UNCALLED"
    )
