"""Checks on the source of ``dlrepair`` itself."""

import ast
from collections import Counter
from pathlib import Path

import dlrepair

ALLOWED: set[tuple[str, str]] = set()


def self_calls(tree: ast.Module, filename: str):
    """``(file, function, line)`` for each call of a function by its own
    name, or of a method by ``self.name`` or ``cls.name``."""

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(path + [child.name])
                for call in ast.walk(child):
                    if isinstance(call, ast.Call):
                        f = call.func
                        if isinstance(f, ast.Name) and f.id == child.name or (
                            isinstance(f, ast.Attribute)
                            and f.attr == child.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id in ("self", "cls")
                        ):
                            yield filename, name, call.lineno
                yield from visit(child, path + [child.name])
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, path + [child.name])
            else:
                yield from visit(child, path)

    yield from visit(tree, [])


def unused_imports(tree: ast.Module, filename: str):
    """``(file, name, line)`` for each name an import binds that the module
    never reads.  ``__future__`` imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, line in bound.items():
        if name not in used:
            yield filename, name, line


def unused_definitions(trees: dict[str, ast.Module]):
    """``(file, name, line)`` for each top-level function or class that no
    module of the package names outside its own definition, as a name, an
    attribute or an imported name; an import in ``__init__.py`` exports it."""

    def names(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name

    counts = Counter(name for tree in trees.values() for name in names(tree))
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if counts[node.name] == Counter(names(node))[node.name]:
                    yield filename, node.name, node.lineno


def _functools(node, name):
    return isinstance(node, ast.Name) and node.id == name or (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def caches(tree: ast.Module):
    """``(function, decorator)`` for each ``functools`` cache decorator, as
    ``@lru_cache(...)``, ``@lru_cache`` or ``@cache``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                called = dec.func if isinstance(dec, ast.Call) else dec
                if _functools(called, "lru_cache") or _functools(called, "cache"):
                    yield node, dec


def unbounded_caches(tree: ast.Module, filename: str):
    """``(file, function, line)`` for each function under a ``functools``
    cache that can grow without bound: ``lru_cache`` with a ``maxsize`` that
    is not an integer literal, or ``cache`` on a function that takes
    arguments.  A bare ``lru_cache`` keeps its default of 128."""
    for node, dec in caches(tree):
        a = node.args
        takes = a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg
        if isinstance(dec, ast.Call) and _functools(dec.func, "lru_cache"):
            size = dec.args[0] if dec.args else next((k.value for k in dec.keywords if k.arg == "maxsize"), None)
            if size is not None and not (isinstance(size, ast.Constant) and type(size.value) is int):
                yield filename, node.name, dec.lineno
        elif _functools(dec, "cache") and takes:
            yield filename, node.name, dec.lineno


def test_caches_are_bounded():
    """A long-lived process keeps every cache, so each has a finite size;
    only a cache of a function without arguments holds a single value."""
    found = []
    for path in sorted(Path(dlrepair.__file__).parent.glob("*.py")):
        for filename, name, line in unbounded_caches(ast.parse(path.read_text()), path.name):
            found.append(f"{filename}:{line} {name}")
    assert found == []


# Every function under a ``functools`` cache, by module.
CACHED = {
    ("classify.py", "_classify"),
    ("cli.py", "_build_parser"),
    ("engine.py", "_plan"),
    ("engine.py", "_readers"),
    ("model.py", "_specialize"),
    ("model.py", "ungrounded_vars"),
    ("parser.py", "parse_program"),
    ("repair.py", "_prepare"),
}


def test_the_cached_functions_are_the_measured_ones():
    """The cached functions are exactly ``CACHED``.  A cache must pay for
    itself: a new one joins the set only with its measured share of a warm
    request on the benchmark workloads recorded in CHANGES.md, and one
    whose removal measures no slower leaves it."""
    found = {
        (path.name, node.name)
        for path in Path(dlrepair.__file__).parent.glob("*.py")
        for node, _ in caches(ast.parse(path.read_text()))
    }
    assert found == CACHED


def test_the_check_sees_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x): pass\n\n"
        "@lru_cache(None)\ndef b(x): pass\n\n"
        "@functools.cache\ndef c(x): pass\n\n"
        "@cache\ndef d(*xs): pass\n\n"
        "@functools.lru_cache(maxsize=SIZE)\ndef e(x): pass\n\n"
        "@functools.lru_cache(maxsize=8)\ndef f(x): pass\n\n"
        "@lru_cache(16, typed=True)\ndef g(x): pass\n\n"
        "@functools.lru_cache\ndef h(x): pass\n\n"
        "@functools.cache\ndef i(): pass\n\n"
        "@other.cache\ndef j(x): pass\n"
    )
    assert [node.name for node, _ in caches(ast.parse(source))] == list("abcdefghi")
    assert [name for _, name, _ in unbounded_caches(ast.parse(source), "x.py")] == ["a", "b", "c", "d", "e"]


def test_no_unused_imports():
    """``__init__.py`` only re-exports, so it is not checked."""
    found = []
    for path in sorted(Path(dlrepair.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            for filename, name, line in unused_imports(ast.parse(path.read_text()), path.name):
                found.append(f"{filename}:{line} {name}")
    assert found == []


def test_the_check_sees_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nfrom a import b, c\n\ndef f(x: c):\n    return x\n"
    assert [name for _, name, _ in unused_imports(ast.parse(source), "x.py")] == ["os", "regex", "b"]


def test_every_definition_is_used_or_exported():
    """Each top-level function and class is named elsewhere in the package
    or exported from ``dlrepair/__init__.py``."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(dlrepair.__file__).parent.glob("*.py"))}
    assert [f"{filename}:{line} {name}" for filename, name, line in unused_definitions(trees)] == []


def test_the_check_sees_unused_definitions():
    trees = {
        "__init__.py": ast.parse("from .a import exported\n"),
        "a.py": ast.parse(
            "def exported(): pass\n\ndef called(): pass\n\ndef unused(): return unused\n\n"
            "class Base: pass\n\nclass Child(Base):\n    def f(self): return called()\n"
        ),
        "b.py": ast.parse("from .a import Child\n\ndef g(): return Child\n"),
    }
    assert [name for _, name, _ in unused_definitions(trees)] == ["unused", "g"]


def test_no_function_calls_itself():
    """Nothing recurses with the size of its input: evaluation and the
    repair search walk explicit stacks."""
    found = []
    for path in sorted(Path(dlrepair.__file__).parent.glob("*.py")):
        for filename, name, line in self_calls(ast.parse(path.read_text()), path.name):
            if (filename, name) not in ALLOWED:
                found.append(f"{filename}:{line} {name}")
    assert found == []


def test_the_check_sees_recursion():
    source = "def f(n):\n    return f(n - 1)\n\nclass C:\n    def g(self):\n        def h():\n            return h()\n        return self.g()\n"
    assert [name for _, name, _ in self_calls(ast.parse(source), "x.py")] == ["f", "C.g", "C.g.h"]
