"""No ``src/`` or ``tests/`` module imports a name it never uses.

An AST scan of every module under ``src/repro`` and ``tests``: each name a
module-level import binds (``TYPE_CHECKING`` blocks included, ``from
__future__`` excluded) must be read somewhere in the module — in code or
in a quoted annotation — or be listed in its ``__all__`` (a re-export).  A
name that appears only in a docstring or a comment is unused; so is a
fixture imported only for pytest to inject by parameter name.
"""

import ast
import os
import re

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src", "repro")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _bound_imports(tree):
    """``(name, line)`` for every name a module-level import binds,
    ``TYPE_CHECKING`` blocks included."""
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Try):
            body += node.body + [n for h in node.handlers for n in h.body]
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Names the module reads, in code or inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_WORD.findall(node.value))
    return used


def unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    used = _used(tree) | _exports(tree)
    return [
        (name, line) for name, line in _bound_imports(tree) if name not in used
    ]


def unused_imports_under(top):
    """``"path:line name"`` for every unused import of a module under ``top``."""
    found = []
    for root, _dirs, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                rel = os.path.relpath(path, top)
                found += [f"{rel}:{line} {bound}" for bound, line in unused_imports(path)]
    return found


def test_no_src_module_imports_an_unused_name():
    assert unused_imports_under(SRC) == []


def test_no_test_module_imports_an_unused_name():
    assert unused_imports_under(TESTS) == []
