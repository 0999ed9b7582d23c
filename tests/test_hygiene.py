"""Source hygiene: every function parameter in the package is read, and
every class the package tests with isinstance is one it constructs."""

import ast
from pathlib import Path

import qmc

SRC = Path(qmc.__file__).parent


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter its body never loads.

    A read inside a nested function or lambda counts, since the body
    closes over the parameter.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, p) for p in params if p not in loaded | {"self", "cls"}]
    return out


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line} {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert not unread


def test_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, *rest):\n    return a\n\ng = lambda x: [x for _ in ()]\n")
    assert _unread_parameters(tree) == [(1, "f", "b"), (1, "f", "rest")]


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unbuilt_isinstance_classes(trees):
    """(file, line, class) for each isinstance test against a class that the
    trees, a {file: tree} dict, define but never call: an input form that
    nothing can pass."""
    nodes = {name: list(ast.walk(tree)) for name, tree in trees.items()}
    every = [n for found in nodes.values() for n in found]
    defined = {n.name for n in every if isinstance(n, ast.ClassDef)}
    unbuilt = defined - {_name(n.func) for n in every if isinstance(n, ast.Call)}
    out = []
    for name, found in nodes.items():
        for call in found:
            if not (isinstance(call, ast.Call) and _name(call.func) == "isinstance"):
                continue
            kinds = call.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if _name(kind) in unbuilt:
                    out.append((name, call.lineno, _name(kind)))
    return out


def test_every_isinstance_class_is_constructed():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not _unbuilt_isinstance_classes(trees)


def test_scan_finds_an_unbuilt_isinstance_class():
    tree = ast.parse(
        "class A:\n    pass\n\nclass B:\n    pass\n\n"
        "def f(x):\n    return isinstance(x, (A, B)), B()\n"
    )
    assert _unbuilt_isinstance_classes({"m.py": tree}) == [("m.py", 8, "A")]


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """(line, name) for each read of the process environment: os.environ,
    os.getenv and their bytes forms, by attribute or by ``from os import``.
    The package takes its settings as arguments, never from the environment."""
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            out.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, a.name) for a in node.names if a.name in _ENV_READERS]
    return sorted(out)


def test_package_reads_no_environment_variable():
    reads = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _environment_reads(ast.parse(path.read_text()))
    ]
    assert not reads


def test_scan_finds_an_environment_read():
    tree = ast.parse(
        "import os\nfrom os import getenv, path\n\n"
        "def f():\n    return os.environ.get('X'), os.getenv('Y'), os.path.sep\n"
    )
    assert _environment_reads(tree) == [(2, "getenv"), (5, "os.environ"), (5, "os.getenv")]
