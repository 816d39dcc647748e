"""Every ``src/`` module and definition has a caller outside the tests.

Two AST scans over ``src/repro``:

* **Modules.**  The import graph is rooted at ``repro.cli``,
  ``repro.__main__``, every ``benchmarks/**/*.py`` and every
  ``examples/*.py``.  Absolute and relative imports, ``"repro.*"`` string
  constants (``import_module`` targets, ``-m`` arguments) and lazy-export
  tables (a package's ``lazy_exports`` table names its submodules) are
  edges; importing a submodule reaches its parent packages too.  A module
  outside the graph fails.
* **Definitions.**  A ``def`` or ``class`` fails when its name is never
  read outside its own body.  A read is a loaded ``Name`` or
  ``Attribute``, a ``getattr``/``hasattr`` of a literal name, or an
  import alias whose binding its module reads, anywhere in ``src/``,
  ``benchmarks/`` or ``examples/``.  No other string is a read, so an
  ``__all__`` entry, a lazy-export table key or a docstring is not a
  caller, and neither is a re-export nothing reads.  Dunder methods are
  called by the language and are not scanned.

The scan matches names, not bindings: a definition passes when any code
reads its name.  What only a test needs stays in ``src/`` only on the
allowlist below, each entry with one reason from :data:`REASONS`; an entry
whose definition is gone or has gained a caller fails too, so the list
cannot go stale.
"""

import ast
import functools
import os
import textwrap

import pytest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: Why a definition may stay in ``src/`` with no caller outside the tests.
REASONS = {
    "oracle": "a test compares a production result against it",
    "driver": "a fault injector or input generator a test drives production code with",
    "override": "a framework calls it by name",
    "snapshot": "snapshot compatibility",
    "recovery": "a recovery or retention verb an operator runs by hand",
}

ALLOWED = {
    # Oracles: the paper-literal or brute-force answer a test checks a
    # production result against.
    "repro.bdd.atomic:AtomicUniverse.is_partition": "oracle",
    "repro.bdd.engine:BDD.compile_flat": "oracle",
    "repro.bdd.engine:BDD.forall": "oracle",
    "repro.bdd.engine:BDD.implies": "oracle",
    "repro.bdd.engine:BDD.restrict": "oracle",
    "repro.bdd.headerspace:HeaderSpace.count_headers": "oracle",
    "repro.bdd.headerspace:HeaderSpace.header_bdd": "oracle",
    "repro.core.bloom:BloomTagScheme.false_positive_probability": "oracle",
    "repro.core.incremental:PrefixRuleTree.port_predicates": "oracle",
    "repro.netmodel.rules:Acl.permits": "oracle",
    "repro.netmodel.topology:Topology.to_networkx": "oracle",
    "repro.obs.exposition:parse_prometheus_text": "oracle",
    "repro.topologies.io:load_scenario": "oracle",  # reads back save_scenario
    # Drivers: fault injectors and input generators.
    "repro.bdd.engine:BDD.nvar": "driver",
    "repro.bdd.engine:BDD.var": "driver",
    "repro.core.sampling:NeverSampler": "driver",
    "repro.dataplane.faults:DropRuleInstall": "driver",
    "repro.dataplane.report_faults:BitFlipReports": "driver",
    "repro.dataplane.report_faults:DuplicateReports": "driver",
    "repro.dataplane.report_faults:InjectionResult.uncorrupted": "driver",
    "repro.dataplane.report_faults:LoseReports": "driver",
    "repro.dataplane.report_faults:ReorderReports": "driver",
    "repro.dataplane.report_faults:ReportStreamFaultInjector": "driver",
    "repro.dataplane.report_faults:StaleReplica": "driver",
    "repro.dataplane.report_faults:TruncateReports": "driver",
    "repro.dataplane.report_faults:WorkerKill": "driver",
    "repro.topologies.generators:build_jellyfish": "driver",
    "repro.topologies.generators:build_random": "driver",
    "repro.topologies.generators:build_star": "driver",
    # http.server dispatches on the method name.
    "repro.obs.httpd:MetricsEndpoint.start.Handler.do_GET": "override",
    "repro.obs.httpd:MetricsEndpoint.start.Handler.log_message": "override",
    # Recovery and retention verbs.  Nothing calls prune_wal yet: a durable
    # serve keeps every WAL segment (no retention policy).
    "repro.cluster.cluster:VeriDPCluster.remove_node": "recovery",
    "repro.core.direct:VeriDPDaemon.retry_dead_letters": "recovery",
    "repro.core.resilience:DeadLetterQueue.drain_quarantined": "recovery",
    "repro.core.server:VeriDPServer.force_rebuild": "recovery",
    "repro.persist.recovery:PersistentState.prune_wal": "recovery",
}


def _py_files(top):
    for root, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def load_modules(src):
    """``{dotted name: (path, is_package, tree)}`` for every module under ``src``."""
    modules = {}
    for path in _py_files(src):
        parts = os.path.relpath(path, src)[: -len(".py")].split(os.sep)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package, _parse(path))
    return modules


def _docstrings(tree):
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _with_parents(name):
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def _lazy_tables(tree):
    """The dicts passed to ``lazy_exports`` (a literal or a module-level name)."""
    assigned = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
            and len(node.args) == 2
        ):
            table = node.args[1]
            if isinstance(table, ast.Name):
                table = assigned.get(table.id)
            if isinstance(table, ast.Dict):
                yield table


def imports_of(name, is_package, tree, known):
    """The modules in ``known`` that module ``name`` imports or names."""
    package = name if is_package else name.rpartition(".")[0]
    docstrings = _docstrings(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            found |= _with_parents(base)
            found |= {f"{base}.{alias.name}" for alias in node.names}
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and node.value in known
        ):
            found |= _with_parents(node.value)
    for table in _lazy_tables(tree):
        for value in table.values:
            if isinstance(value, ast.Constant):
                found |= _with_parents(f"{name}.{value.value}")
    return found & set(known)


def orphan_modules(src, root_modules, root_files):
    """The modules under ``src`` that no root reaches, sorted."""
    modules = load_modules(src)
    reached = set()
    stack = list(root_modules)
    for path in root_files:
        stack += imports_of("__root__", False, _parse(path), modules)
    while stack:
        name = stack.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        _path, is_package, tree = modules[name]
        stack += imports_of(name, is_package, tree, modules)
    return sorted(set(modules) - reached)


def _reads(tree):
    """``(name, line)`` for every read in one module."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            # getattr(obj, "name") is obj.name spelled for an optional method.
            yield node.args[1].value, node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) in loaded:
                    yield alias.name, node.lineno


def _definitions(tree, prefix=""):
    """``(qualname, node)`` for every ``def`` and ``class``, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def orphan_definitions(src, reader_dirs):
    """``module:qualname`` of every definition under ``src`` whose name no
    file under ``reader_dirs`` reads outside the definition's own body."""
    reads = {}
    for top in reader_dirs:
        for path in _py_files(top):
            for name, line in _reads(_parse(path)):
                reads.setdefault(name, []).append((os.path.abspath(path), line))
    found = []
    for module, (path, _is_package, tree) in sorted(load_modules(src).items()):
        path = os.path.abspath(path)
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [
                (where, line)
                for where, line in reads.get(name, ())
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                found.append(f"{module}:{qualname}")
    return found


def scan(repo, roots=("repro.cli", "repro.__main__")):
    """``(orphan modules, orphan definitions)`` of the repository at ``repo``."""
    src = os.path.join(repo, "src")
    benchmarks = os.path.join(repo, "benchmarks")
    examples = os.path.join(repo, "examples")
    root_files = list(_py_files(benchmarks)) + [
        os.path.join(examples, name)
        for name in sorted(os.listdir(examples))
        if name.endswith(".py")
    ]
    modules = orphan_modules(src, roots, root_files)
    definitions = orphan_definitions(src, [src, benchmarks, examples])
    return modules, definitions


def allowlist_problems(allowed, definitions):
    """Allowlist entries with an unknown reason, or whose definition is
    gone or has gained a caller."""
    return sorted(
        entry
        for entry, reason in allowed.items()
        if reason not in REASONS or entry not in definitions
    )


@functools.lru_cache(maxsize=None)
def _repo_scan():
    return scan(REPO)


def test_every_src_module_is_reachable():
    modules, _definitions = _repo_scan()
    assert modules == []


def test_every_src_definition_has_a_caller():
    _modules, definitions = _repo_scan()
    assert [d for d in definitions if d not in ALLOWED] == []


def test_allowlist_is_current():
    _modules, definitions = _repo_scan()
    assert allowlist_problems(ALLOWED, definitions) == []


# -- the scanner itself, on a planted package ------------------------------

_PLANTED = {
    "src/pkg/__init__.py": """
        \"\"\"Planted package.\"\"\"
        from .lazy import lazy_exports
        from .core import exported_only

        __all__ = ["exported_only", "late"]
        __getattr__, __dir__ = lazy_exports(globals(), {"late": "late_mod"})
    """,
    "src/pkg/lazy.py": """
        def lazy_exports(namespace, table):
            return None, None
    """,
    "src/pkg/cli.py": """
        from importlib import import_module

        import pkg
        from . import core as engine


        def main():
            import_module("pkg.dynamic").dynamic()
            return engine.used() + pkg.late()
    """,
    "src/pkg/core.py": """
        def used():
            \"\"\"``orphan`` named in a docstring is no caller.\"\"\"
            return 1


        def orphan():
            return orphan()


        def exported_only():
            return 2
    """,
    "src/pkg/late_mod.py": """
        def late():
            return 3
    """,
    "src/pkg/dynamic.py": """
        def dynamic():
            return 4
    """,
    "src/pkg/island.py": """
        from .core import used


        def lonely():
            return used()
    """,
    "examples/demo.py": """
        from pkg.cli import main

        main()
    """,
}


@pytest.fixture
def planted(tmp_path):
    for rel, text in _PLANTED.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip())
    (tmp_path / "benchmarks").mkdir()
    return scan(str(tmp_path), roots=("pkg.cli",))


def test_scanner_reports_exactly_the_planted_orphans(planted):
    modules, definitions = planted
    # Reached: lazy table (late_mod), string target (dynamic), relative
    # import (core), the example's absolute import (cli).
    assert modules == ["pkg.island"]
    # exported_only: only ``__all__`` and an unread re-export name it;
    # orphan: only its own body does.
    assert definitions == [
        "pkg.core:orphan",
        "pkg.core:exported_only",
        "pkg.island:lonely",
    ]


def test_stale_allowlist_entries_are_reported(planted):
    _modules, definitions = planted
    allowed = {
        "pkg.core:orphan": "oracle",  # still an orphan: fine
        "pkg.core:used": "driver",  # has a caller
        "pkg.core:gone": "driver",  # no such definition
        "pkg.island:lonely": "convenience",  # not a reason
    }
    assert allowlist_problems(allowed, definitions) == [
        "pkg.core:gone",
        "pkg.core:used",
        "pkg.island:lonely",
    ]
