"""The package's public surface."""

import ast
import re
from collections import Counter
from pathlib import Path

import emeter

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "demos", "perfbench")


def test_every_export_resolves():
    # a name dropped from the package but left in __all__ breaks
    # ``from emeter import *``
    assert [name for name in emeter.__all__ if not hasattr(emeter, name)] == []
    assert len(set(emeter.__all__)) == len(emeter.__all__)


def test_every_definition_is_used():
    # a function, method or class of the package whose name occurs nowhere
    # in the program, its tests, demos or benchmark but at its own
    # definition is dead code
    texts = [path.read_text() for d in SOURCE_DIRS for path in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    unused = []
    for path in sorted((ROOT / "src" / "emeter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and words[node.name] <= 1):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
