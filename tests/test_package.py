"""Whole-package checks: dead definitions, fields and defaults, imports."""

import ast
import re
from collections import Counter
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "demos", "perfbench")


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


def test_no_import_inside_a_function():
    # an import in a function body hides a dependency, often an import cycle,
    # from the head of its module
    inside = sorted({f"{path.name}:{node.lineno}"
                     for path in sorted((ROOT / "src" / "emeter").glob("*.py"))
                     for func in ast.walk(ast.parse(path.read_text()))
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(func)
                     if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert inside == []


def test_no_private_import_across_modules():
    # a module that takes an ``_``-prefixed name from another emeter module
    # leans on what that module keeps to itself; make the name public first
    private = sorted(f"{path.name}:{node.lineno} {alias.name} from {node.module}"
                     for path in sorted((ROOT / "src" / "emeter").glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom)
                     and (node.level > 0 or (node.module or "").split(".")[0] == "emeter")
                     for alias in node.names if alias.name.startswith("_"))
    assert private == []


# Dead state the program keeps on purpose: name -> why it stays.
KEPT_STATE = {
    "MeasurementPair.instant_ns":
        "the acceptance gate builds MeasurementPair from five positional arguments",
}


def _trees():
    return [ast.parse(path.read_text())
            for d in SOURCE_DIRS for path in sorted((ROOT / d).rglob("*.py"))]


def _package_classes():
    for path in sorted((ROOT / "src" / "emeter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                yield node


def _is_record_class(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def test_every_field_is_read():
    # a dataclass or NamedTuple field that no code reads, as an attribute or
    # by its string name, is state nothing needs; passing the class to
    # ``fields()`` does not count, since a field read only that way (say,
    # into a file) is still state nothing needs
    read, strings = set(), set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    unread = []
    for cls in _package_classes():
        if not _is_record_class(cls):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if (name not in read and name not in strings
                        and f"{cls.name}.{name}" not in KEPT_STATE):
                    unread.append(f"{cls.name}.{name}")
    assert unread == []


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _defaulted_fields(cls: ast.ClassDef):
    """(class name, positional index, field name) of every field of a
    dataclass or NamedTuple that has a default and is an ``__init__``
    parameter."""
    init_fields = [stmt for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                   and not _init_false(stmt.value)]
    for index, stmt in enumerate(init_fields):
        if stmt.value is not None:
            yield cls.name, index, stmt.target.id


def _defaulted_parameters():
    """(function name, positional index at a call or None, parameter name)
    of every defaulted parameter of the package's non-dunder functions and
    ``__init__`` methods, and of every defaulted record-class field; an
    ``__init__`` goes by its class's name, and a method's index does not
    count ``self`` or ``cls``."""
    for cls in _package_classes():
        if _is_record_class(cls):
            yield from _defaulted_fields(cls)
    for path in sorted((ROOT / "src" / "emeter").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name == "__init__" and id(node) in owners:
                name = owners[id(node)].name
            elif name.startswith("__") and name.endswith("__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            method = id(node) in owners and not static
            positional = node.args.posonlyargs + node.args.args
            for index in range(len(positional) - len(node.args.defaults), len(positional)):
                yield name, index - method, positional[index].arg
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield name, None, arg.arg


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the program, its tests, demos and benchmark, by the
    called name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_overridden_somewhere():
    # a parameter or field default that no call site in the program, its
    # tests, demos or benchmark ever passes is a settable value with one
    # value in use; a call is matched by the called name, a class call to its
    # ``__init__`` or its fields
    calls = _calls()

    def passes(call: ast.Call, index, param: str) -> bool:
        if any(k.arg is None or k.arg == param for k in call.keywords):
            return True
        starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        return index is not None and (len(call.args) > index
                                      or any(i <= index for i in starred))

    never = [f"{name}({param}=)" for name, index, param in _defaulted_parameters()
             if not any(passes(call, index, param) for call in calls.get(name, []))
             and f"{name}.{param}" not in KEPT_STATE]
    assert never == []


def test_every_default_is_used_somewhere():
    # a default that every call site overrides is never used: the value is
    # required in all but name.  A call through ``*args`` or ``**kwargs``
    # that does not name the parameter counts as using the default, as the
    # staircase tests use ``build_staircase``'s through ``**kwargs``
    calls = _calls()

    def names(call: ast.Call, index, param: str) -> bool:
        if any(k.arg == param for k in call.keywords):
            return True
        return (index is not None and len(call.args) > index
                and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1]))

    always = [f"{name}({param}=)" for name, index, param in _defaulted_parameters()
              if all(names(call, index, param) for call in calls.get(name, []))
              and f"{name}.{param}" not in KEPT_STATE]
    assert always == []


def test_benchmark_workloads_run(tmp_path, monkeypatch):
    # the benchmark calls the program through perfbench/suite.py; an API
    # break there, or an output its checks reject, would otherwise show
    # only as a refused benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import suite

    for workload in suite.WORKLOADS.values():
        bench = workload()
        ops = bench.setup(3, tmp_path)
        for op in (ops[0], ops[-1]):
            outcome = bench.inspect(op, bench.run(op), full=True)
            assert outcome.problem == "" and outcome.samples > 0, (bench.name, op)


def _defines(path: Path, names: list) -> bool:
    """Whether ``path`` defines the test ``names``: a function, or a class
    and one of its methods."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_every_mutant_row_applies():
    # tests/mutants.py takes about a minute, so tier-1 checks its table: a
    # change that moves a row's old text, or renames or moves a test a row
    # names, fails here and not only when the script runs
    stale = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            stale.append(f"{m.why}: the old text occurs {count} times in {m.path}")
        for node in m.nodes:
            path, *names = node.split("[")[0].split("::")
            if not ((ROOT / path).is_file() and _defines(ROOT / path, names)):
                stale.append(f"{m.why}: no test {node}")
    assert stale == []
