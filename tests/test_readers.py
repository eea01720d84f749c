"""Every public name in src/quidem has a reader outside the tests.

The check is by name over the syntax trees, in src/ (outside the name's own
definition), scripts/ and perfbench/.  A public method or property counts as
read when some attribute access takes its name, and a module-level function
that quidem/__init__.py does not export also when its name is loaded or
imported.  A name that unrelated code also mentions therefore passes; a name
that no code mentions is always caught.

That is the blind spot of a check by spelling.  Three test-only names once
passed it: TensorSplit.functional, read as far as the check could tell by
every item.functional; MultiMatrixAlgebra.index, by every tuple.index; and
ExpectationCheck.passed, by every report.passed.  A trace of the calls made
by the CLI, the example script and the benchmark found them unreached; they
now live in the tests (_ref_tensor_functional, _unit_index and
_expectation_passed)."""

import ast
import functools
from collections import Counter
from pathlib import Path

import quidem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quidem"
READERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# Public names that may have no reader yet, each with its reason.
ALLOWED = {
    "GroupTable.is_normal",            # the classical oracle of the normality row (ROADMAP item 17)
    "MultiMatrixAlgebra.basis",        # the public coordinates: the basis elements e_i
    "OperatorSubspace.basis",          # the public coordinates: the orthonormal basis of X
}


def _trees() -> dict[Path, ast.Module]:
    """The parsed sources of the readers, test modules left out."""
    return {path: ast.parse(path.read_text(), str(path)) for root in READERS for path in sorted(root.rglob("*.py"))
            if not path.name.startswith("test_") and path.name != "conftest.py"}


def _definitions(trees: dict) -> dict[str, tuple[ast.FunctionDef, bool]]:
    """Public module-level functions not exported by the package, and public
    methods and properties, by qualified name, each with whether it is a
    method."""
    found = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in quidem.__all__:
                found[f"{path.stem}.{node.name}"] = node, False
            elif isinstance(node, ast.ClassDef):
                found.update((f"{node.name}.{item.name}", (item, True)) for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return {name: entry for name, entry in found.items() if not entry[0].name.startswith("_")}


def _mentions(tree: ast.AST) -> Counter:
    """How often tree takes each name as an attribute, keyed ("attribute",
    name), and loads or imports it, keyed ("name", name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found["attribute", node.attr] += 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found["name", node.id] += 1
        elif isinstance(node, ast.alias):
            found["name", node.name] += 1
    return found


@functools.cache
def unread_names() -> frozenset[str]:
    """The qualified names of the definitions that no reader mentions."""
    trees = _trees()
    everywhere = sum(map(_mentions, trees.values()), Counter())
    unread = set()
    for qualified, (node, method) in _definitions(trees).items():
        elsewhere = everywhere - _mentions(node)
        kinds = ("attribute",) if method else ("attribute", "name")
        if not any(elsewhere[kind, node.name] for kind in kinds):
            unread.add(qualified)
    return frozenset(unread)


def test_every_public_name_has_a_reader_outside_the_tests():
    unread = sorted(unread_names() - ALLOWED)
    assert not unread, f"no reader in src/, scripts/ or perfbench/: {', '.join(unread)}"


def test_every_allowed_name_is_still_defined_and_unread():
    """A stale entry, one that is gone or has found a reader, leaves the list."""
    assert ALLOWED <= unread_names()
