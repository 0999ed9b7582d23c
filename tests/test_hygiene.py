"""Source hygiene: every function parameter in the package is read,
every class the package tests with isinstance is one it constructs,
every exception it raises is one of its own typed errors, every export
has a consumer, and every optional parameter of an export has a caller
that sets it."""

import ast
import builtins
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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(fn):
    """Names a function or lambda binds: its parameters and the targets it
    assigns, nested functions' own bindings excepted."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
        if not isinstance(n, _SCOPES):
            todo.extend(ast.iter_child_nodes(n))
    return names


def _module_bases(tree, modules):
    """Dotted names through which the imports of ``tree`` reach the package
    or one of ``modules``, its module names: ``import qmc`` gives qmc and
    qmc.m for each module m, ``import m`` gives m, ``import ... as x``
    gives x, and ``from . import m`` or ``from qmc import m`` gives m, or
    its ``as`` name."""
    bases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package = alias.name.partition(".")[0] == "qmc"
                if alias.asname and (package or alias.name in modules):
                    bases.add(alias.asname)
                elif package:
                    bases |= {"qmc", *(f"qmc.{m}" for m in modules)}
                elif alias.name in modules:
                    bases.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "qmc"):
            bases |= {a.asname or a.name for a in node.names if a.name in modules}
    return bases


def _dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _loads(node, bases):
    """Names that ``node`` loads: a ``Name`` read that no enclosing function
    binds as a parameter or an assignment target (a local of that name
    shadows the module's), an attribute of that name read off one of
    ``bases`` (see :func:`_module_bases`), or an import of it."""
    out = set()

    def visit(n, local):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id not in local:
                out.add(n.id)
        elif isinstance(n, ast.Attribute):
            if _dotted(n.value) in bases:
                out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        if isinstance(n, _SCOPES):
            body = n.body if isinstance(n.body, list) else [n.body]
            inner = local | _local_names(n)
        else:
            body, inner = [], local
        for child in ast.iter_child_nodes(n):
            visit(child, inner if any(child is b for b in body) else local)

    visit(node, frozenset())
    return out


def _unloaded_private_names(trees):
    """(file, line, name) for each private module-level name that the trees,
    a {file: tree} dict, define but never load (see :func:`_loads`); leading
    underscore, dunders excepted, marks private."""
    defined, loaded = [], set()
    modules = {Path(file).stem for file in trees}
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(file, node.lineno, name) for name in names if _private(name)]
        loaded |= _loads(tree, _module_bases(tree, modules))
    return [entry for entry in defined if entry[2] not in loaded]


def test_every_private_name_is_loaded():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not _unloaded_private_names(trees)


def test_scan_finds_an_unloaded_private_name():
    trees = {
        "a.py": ast.parse(
            "__all__ = []\n_A, _B = 1, 2\n_C: int = 3\n_D = 4\n\n"
            "def _f():\n    return _A\n\nclass _K:\n    pass\n"
        ),
        "b.py": ast.parse("from a import _f\nimport a\n\nx = a._C + _f()\n"),
    }
    assert _unloaded_private_names(trees) == [
        ("a.py", 2, "_B"),
        ("a.py", 4, "_D"),
        ("a.py", 9, "_K"),
    ]


def _unconsumed_exports(trees):
    """Names in the ``__all__`` of some tree of ``trees``, a {file: tree}
    dict, that no tree loads (see :func:`_loads`) outside the name's own
    top-level definition."""
    exports = sorted(set().union(*map(_exported_names, trees.values())))
    modules = {Path(file).stem for file in trees}
    loaded = set()
    for tree in trees.values():
        bases = _module_bases(tree, modules)
        for node in tree.body:
            names = _loads(node, bases)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
            loaded |= names
    return [name for name in exports if name not in loaded]


# names in a module's __all__ that neither the package nor the acceptance
# suite loads, and why each stays
_UNCONSUMED_EXPORTS = {
    "channel": "perfbench/tracer.py patches it to count superoperator builds",
    "joint_overlap": "the paper's joint system-output overlap <Psi_1(n)|Psi_2(n)>",
    "stabiliser": "the orbifold's residual symmetry group {(gamma^m, Z^m)}",
    "sample": "the public form of the per-(seed, trial) contract: row t of any batch",
    "isometry_to_json": "perfbench/ and the tests write chain files with it, "
    "in the schema the CLI reads",
}


def test_every_export_has_a_consumer():
    acceptance = Path(__file__).with_name("test_acceptance.py")
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py")) + [acceptance]
        if path.name != "__init__.py"
    }
    assert _unconsumed_exports(trees) == sorted(_UNCONSUMED_EXPORTS)


def test_scan_finds_an_unconsumed_export():
    trees = {
        "a.py": ast.parse(
            "__all__ = ['K', 'f', 'g', 'h', 'm']\n\n"
            "def f():\n    return f()\n\ndef g():\n    return 1\n\n"
            "def h():\n    return g()\n\ndef m():\n    pass\n\nclass K:\n    pass\n"
        ),
        # the parameter and the local named s shadow the export s
        "s.py": ast.parse(
            "__all__ = ['s']\n\ndef s():\n    pass\n\n"
            "def t(s):\n    return s\n\ndef u():\n    s = 1\n    return s\n\n"
            "w = lambda s: s\n"
        ),
        "b.py": ast.parse("import a\nfrom a import K\n\n__all__ = ('x',)\n\nx = a.m\n"),
        "c.py": ast.parse("from b import x\n\n__all__ = ['z']\n\nz = x\n"),
    }
    # f loads only itself; nothing loads h, s or c's z
    assert _unconsumed_exports(trees) == ["f", "h", "s", "z"]


def test_scan_counts_an_attribute_only_on_a_package_module():
    # oracles.trace_norm reads a test helper, so it keeps no export named
    # trace_norm alive; qmc.linalg.dag and qe.invert_mean, through an
    # import alias, read package modules
    trees = {
        "linalg.py": ast.parse(
            "__all__ = ['dag', 'trace_norm']\n\n"
            "def dag(a):\n    return a\n\ndef trace_norm(a):\n    return a\n"
        ),
        "qubit_example.py": ast.parse(
            "__all__ = ['invert_mean']\n\ndef invert_mean(x):\n    return x\n"
        ),
        "cli.py": ast.parse(
            "def f(x):\n    from . import qubit_example as qe\n\n    return qe.invert_mean(x)\n"
        ),
        "test_acceptance.py": ast.parse(
            "import oracles\nimport qmc\n\nx = oracles.trace_norm(1) + qmc.linalg.dag(1)\n"
        ),
    }
    assert _unconsumed_exports(trees) == ["trace_norm"]


# argparse's error exit, re-routed by cli._Parser.error, is the one
# built-in exception the package raises
_BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
} - {"SystemExit"}


def _builtin_raises(tree):
    """(line, name) for each ``raise`` of a Python built-in exception, as a
    call or as a class; the package raises typed ``QmcError`` subclasses."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_EXCEPTIONS:
                out.append((node.lineno, exc.id))
    return sorted(out)


def test_package_raises_no_builtin_exception():
    raised = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _builtin_raises(ast.parse(path.read_text()))
    ]
    assert not raised


def test_scan_finds_a_builtin_raise():
    tree = ast.parse(
        "def f(x, error):\n    if x:\n        raise ValueError('x')\n    raise KeyError\n\n"
        "def g(error):\n    try:\n        raise SystemExit(1)\n    except SystemExit:\n"
        "        raise\n    raise error('y') from None\n"
    )
    assert _builtin_raises(tree) == [(3, "ValueError"), (4, "KeyError")]


def _exported_names(tree):
    """The names a module's top-level ``__all__`` list or tuple holds."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _signature(node):
    """(parameters, positional, optional) of a function or lambda node:
    every parameter name, the ones a call fills by position (a leading
    ``self`` or ``cls`` excepted) and the ones with a default."""
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    optional = positional[len(positional) - len(a.defaults) :] if a.defaults else []
    optional += [p.arg for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    params = positional + [p.arg for p in a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    return set(params), positional, set(optional)


def _unset_parameters(trees):
    """(function, parameter) for each parameter with a default, of a function
    in some module's ``__all__``, that no call in ``trees``, a {file: tree}
    dict, sets.

    A call resolves by the callee's name to every function of that name in
    the trees, and sets the parameters it passes by keyword or by position.
    A value that is a bare parameter of the calling function sets the
    parameter only if that one is set in turn; required parameters always
    are.
    """
    defs, exported = {}, []
    for tree in trees.values():
        names = _exported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(_signature(node))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
                exported += [(node.name, p) for p in sorted(_signature(node)[2])]

    given, forwarded = set(), []  # set pairs; (pair, pair it is forwarded from)

    def source(value, scopes):
        # (caller, parameter) when the value is an optional parameter of the
        # innermost function that has a parameter of that name
        if isinstance(value, ast.Name):
            for name, (params, _, optional) in reversed(scopes):
                if value.id in params:
                    return (name, value.id) if value.id in optional else None
        return None

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scopes = scopes + [(getattr(node, "name", "<lambda>"), _signature(node))]
        if isinstance(node, ast.Call):
            callee = _name(node.func)
            passed = [(kw.arg, kw.value) for kw in node.keywords if kw.arg is not None]
            for _, positional, _ in defs.get(callee, []):
                for param, value in zip(positional, node.args):
                    if isinstance(value, ast.Starred):
                        break
                    passed.append((param, value))
            for param, value in passed:
                origin = source(value, scopes)
                if origin is None:
                    given.add((callee, param))
                else:
                    forwarded.append(((callee, param), origin))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    for tree in trees.values():
        visit(tree, [])
    while True:
        new = {target for target, origin in forwarded if origin in given} - given
        if not new:
            return [pair for pair in exported if pair not in given]
        given |= new


# optional parameters that no caller outside the unit tests sets, and why each stays
_UNSET_PARAMETERS = {
    ("channel", "picture"): "the reference route; perfbench/tracer.py patches channel",
    ("closed_form_mean", "block"): "the printed m3 pair-mean golden",
    ("fluctuation_stats", "meas"): "only the caller knows the measured basis",
    ("qfi_rate", "b"): "the off-diagonal QFI rate, the paper's inner product on "
    "the identifiable tangent space",
    ("sample", "trial"): "the per-(seed, trial) contract: row t of any batch",
    ("witness_matches", "tol"): "a checking helper",
}


def test_every_optional_parameter_is_set():
    root = Path(__file__).parents[1]
    paths = sorted(SRC.glob("*.py")) + [Path(__file__).with_name("test_acceptance.py")]
    paths += sorted((root / "perfbench").glob("*.py"))
    trees = {str(path): ast.parse(path.read_text()) for path in paths}
    assert sorted(_unset_parameters(trees)) == sorted(_UNSET_PARAMETERS)


def test_scan_finds_an_unset_parameter():
    trees = {
        "a.py": ast.parse(
            "__all__ = ['f', 'g', 'h']\n\n"
            "def f(x, lone=1, fwd=2, lit=3, req=4, pos=5):\n    return x\n\n"
            "def g(y, opt=None):\n    return f(y, fwd=opt, lit='z')\n\n"
            "def h(z, w=0):\n    return f(z, req=z), g(z), _p(z, 1)\n\n"
            "def _p(u, v=1):\n    return f(u, pos=v)\n"
        ),
        "b.py": ast.parse("import a\n\na.h(0)\n"),
    }
    # lone: no call passes it; fwd: only forwarded from the unset opt; lit:
    # a literal; req: forwarded from a required parameter; pos: forwarded
    # from _p's v, which h passes by position
    assert _unset_parameters(trees) == [("f", "fwd"), ("f", "lone"), ("g", "opt"), ("h", "w")]
