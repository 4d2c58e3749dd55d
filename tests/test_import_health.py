"""Dependency hygiene: the package must compile, import, and stay acyclic.

The resilient-ingest layers (telescope, dns, testing) sit *below* the
detection core: core consumes observation streams, never the other way
around.  An accidental upward import would create a cycle that only
explodes at import time in some orders — exactly the class of failure
a live monitor must not discover in production.  This module is the
smoke check: ``compileall`` over ``src``, a module-level import graph
extracted from the AST, cycle detection, and the layering contract for
the ingest modules.
"""

from __future__ import annotations

import ast
import compileall
import sys
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "repro"

#: ingest-side packages that must never import from analysis-side ones
INGEST_PREFIXES = ("repro.net", "repro.telescope", "repro.dns",
                   "repro.testing")
ANALYSIS_PREFIXES = ("repro.core", "repro.eval", "repro.experiments",
                     "repro.baselines", "repro.traffic")


def iter_modules() -> Dict[str, Path]:
    modules: Dict[str, Path] = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("")
        parts = list(relative.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def module_level_imports(tree: ast.Module, module: str,
                         known: Set[str]) -> Set[str]:
    """Intra-package imports at module level (function bodies excluded)."""
    found: Set[str] = set()

    def resolve(name: str) -> None:
        # Credit the import to the longest known module prefix.
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in known:
                found.add(candidate)
                return

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # lazy imports are allowed to cross layers
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(PACKAGE):
                        resolve(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = module.split(".")
                    base = base[:len(base) - node.level + 1]
                    prefix = ".".join(base[:-1] if node.module is None
                                      else base[:-1] + [node.module])
                    # Relative import of a package: "from . import x".
                    if node.module is None:
                        prefix = ".".join(base[:-1]) or PACKAGE
                else:
                    prefix = node.module or ""
                if not prefix.startswith(PACKAGE):
                    continue
                for alias in node.names:
                    resolve(f"{prefix}.{alias.name}")
                resolve(prefix)
            elif isinstance(node, (ast.If, ast.Try)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    children = getattr(node, field, [])
                    for child in children:
                        if isinstance(child, ast.ExceptHandler):
                            visit(child.body)
                        else:
                            visit([child])
    visit(tree.body)
    found.discard(module)
    return found


def build_graph() -> Dict[str, Set[str]]:
    modules = iter_modules()
    known = set(modules)
    graph: Dict[str, Set[str]] = {}
    for module, path in modules.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[module] = module_level_imports(tree, module, known)
    return graph


class TestImportHealth:
    def test_package_compiles_cleanly(self):
        assert compileall.compile_dir(str(SRC), quiet=2, force=False), \
            "compileall found syntax errors under src/"

    def test_every_module_imports(self):
        import importlib

        for module in iter_modules():
            assert importlib.import_module(module) is sys.modules[module]

    def test_no_module_level_import_cycles(self):
        graph = build_graph()
        WHITE, GRAY, BLACK = 0, 1, 2
        state = {module: WHITE for module in graph}
        stack: List[str] = []

        def dfs(module: str) -> None:
            state[module] = GRAY
            stack.append(module)
            for dep in sorted(graph.get(module, ())):
                if state.get(dep, BLACK) == GRAY:
                    cycle = stack[stack.index(dep):] + [dep]
                    raise AssertionError(
                        "import cycle: " + " -> ".join(cycle))
                if state.get(dep) == WHITE:
                    dfs(dep)
            stack.pop()
            state[module] = BLACK

        for module in sorted(graph):
            if state[module] == WHITE:
                dfs(module)

    def test_ingest_modules_do_not_import_analysis_layers(self):
        graph = build_graph()
        violations = []
        for module, deps in graph.items():
            if not module.startswith(INGEST_PREFIXES):
                continue
            for dep in deps:
                if dep.startswith(ANALYSIS_PREFIXES):
                    violations.append(f"{module} -> {dep}")
        assert violations == [], (
            "ingest modules must stay below the analysis layers: "
            + ", ".join(sorted(violations)))

    def test_cli_import_loads_no_server_stack(self):
        """``import repro.cli`` pulls in no HTTP or event-loop machinery:
        the serving plane is imported only when a command serves."""
        import os
        import subprocess

        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print(sorted(m for m in ('http.server', 'asyncio') "
             "if m in sys.modules))"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"

    def test_shard_forkserver_starts_at_first_launch_only(self):
        """Importing the CLI and the live path (which imports
        ``repro.parallel``) and building a ``ShardSupervisor`` start no
        forkserver: commands that never shard must not pay its start."""
        import os
        import subprocess

        probe = subprocess.run(
            [sys.executable, "-c",
             "import repro.cli, repro.live; "
             "from multiprocessing import forkserver; "
             "from repro.parallel import ShardSupervisor, "
             "SupervisionPolicy; "
             "ShardSupervisor('detect', None, None, SupervisionPolicy(), "
             "2, 'digest', 0); "
             "print(forkserver._forkserver._forkserver_pid)"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True)
        assert probe.stdout.strip() == "None"

    def test_scalar_belief_oracles_have_no_caller_outside_belief(self):
        """Every streaming bin closes through the cohort kernels: the
        scalar recurrence (``BeliefState.update``,
        ``bin_log_likelihood_ratio``, ``fused_posterior``) is the
        kernels' oracle, called from ``core/belief.py`` and the tests
        only, so no second close path grows back in ``src/``."""
        oracles = {"bin_log_likelihood_ratio", "fused_posterior"}
        callers = []
        for module, path in iter_modules().items():
            if module == "repro.core.belief":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                belief_update = (
                    name == "update" and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "belief")
                if name in oracles or belief_update:
                    callers.append(f"{module}:{node.lineno}")
        assert callers == [], (
            "scalar belief oracles called outside core/belief.py: "
            + ", ".join(callers))
