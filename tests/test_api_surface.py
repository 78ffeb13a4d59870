"""Every public or private name that src/localp2 defines at module level,
and every non-dunder method, must be used by the package itself or by the
benchmark in perfbench/; a name that only tests use is dead library code.

A use is an identifier (a name, an attribute or an imported name) in
src/localp2 or perfbench/, or a "module:Qual.attr" target string in
perfbench/, whose tracer resolves functions by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localp2"
BENCH = ROOT / "perfbench"
TARGET = re.compile(r"^\w+:[\w.]+$")


def defined(tree):
    """Module-level function and class nodes, and non-dunder method nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def used(tree, targets: bool):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif targets and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and TARGET.match(node.value):
            yield from re.split(r"[:.]", node.value)


def test_every_library_name_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(used(tree, targets=False))
    for path in sorted(BENCH.glob("*.py")):
        uses.update(used(ast.parse(path.read_text()), targets=True))
    # a recursive call inside a definition does not use it
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() for node in defined(tree)
              if uses[node.name] == Counter(used(node, False))[node.name]]
    assert unused == []
