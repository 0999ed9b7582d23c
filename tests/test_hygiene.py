"""Source hygiene: every function parameter in the package is read."""

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
