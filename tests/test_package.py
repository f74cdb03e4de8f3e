"""The package ships no test-only code.

Every function and method defined in src/catbound, dunders aside, must be
used somewhere in the package, and a name counts only where it means that
definition, so a parameter, a local or a field of the same name hides
nothing:

- a module-level function where `symtable` resolves a read to the module
  global, where another module imports it, or where its module's
  `__all__` lists it;
- a nested function where a read resolves to the local that holds it;
- a method only as an Attribute, or as a name read in its class body (the
  parser's keyword tables).

Code that only tests call belongs in tests/, beside the reference_*.py
modules.  The few functions that something outside the package binds are
on UNCALLED, each with the file that binds it; an entry must still have no
caller in the package and still be named in its file, so the list can
only shrink."""

import ast
import re
import symtable
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


def _definitions(tree: ast.AST, prefix: str = "", in_class: bool = False):
    """(qualified name, name, is a method) of each function and method,
    nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name, in_class
            yield from _definitions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}{node.name}.", in_class=True)
        else:
            yield from _definitions(node, prefix, in_class)


def _reads(table: symtable.SymbolTable, prefix: str = "", scopes: tuple = ()) -> set[str]:
    """Qualified names, spelled as `_definitions` spells them, of the module
    globals, function locals and class-body names that the module reads,
    each read resolved by `symtable`.  `scopes` holds the enclosing
    (qualified prefix, table) pairs, outermost first."""
    reads = set()
    for symbol in table.get_symbols():
        name = symbol.get_name()
        if not symbol.is_referenced():
            continue
        if table.get_type() == "module" or symbol.is_global():
            reads.add(name)
        elif symbol.is_local():
            reads.add(prefix + name)
        elif symbol.is_free():
            # the innermost enclosing function that binds it: a class body
            # is no enclosing scope
            binders = [
                outer for outer, scope in scopes
                if scope.get_type() == "function"
                and name in scope.get_identifiers() and scope.lookup(name).is_local()
            ]
            if binders:
                reads.add(binders[-1] + name)
    for child in table.get_children():
        reads |= _reads(child, f"{prefix}{child.get_name()}.", (*scopes, (prefix, table)))
    return reads


def _listed(tree: ast.AST) -> set[str]:
    """The strings of the module's `__all__`."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def _imports(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) of each `from catbound.module import name`, relative
    or absolute, anywhere in the module."""
    return {
        (node.module.removeprefix("catbound.") if node.level == 0 else node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _uncalled() -> set[str]:
    """Dotted names, module first, of the functions the package never uses."""
    sources = {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    trees = {module: ast.parse(text) for module, text in sources.items()}
    attributes = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    uncalled = set()
    for module, tree in trees.items():
        reads = _reads(symtable.symtable(sources[module], module, "exec"))
        listed = _listed(tree)
        imported = {
            name for other, other_tree in trees.items() if other != module
            for source, name in _imports(other_tree) if source == module
        }
        for qualified, name, method in _definitions(tree):
            if method:
                used = name in attributes or qualified in reads
            else:
                used = qualified in reads or qualified in imported or qualified in listed
            if not used:
                uncalled.add(f"{module}.{qualified}")
    return uncalled


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
