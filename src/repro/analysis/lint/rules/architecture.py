"""Architecture rules (ARCH family).

ARCH001 enforces the package-layering DAG of ``docs/ARCHITECTURE.md``
("Where things live"): each ``repro.*`` subpackage declares the set of
sibling subpackages it may import at module level.  Lazy (function-body)
and ``TYPE_CHECKING`` imports are exempt — they are the repo's sanctioned
cycle-breaking idiom and never execute at import time — so the checked
graph is exactly the import-time dependency DAG.

ARCH002 polices the two structural protocol surfaces misuse silently
breaks: ``ServeMiddleware`` subclasses with a hook-named method that is
not part of the hook vocabulary (a typo'd ``after_compelte`` never
fires), and ``EventSource`` implementations missing ``attach`` (the
runtime would reject them at composition time, far from the definition).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Finding, dotted_name
from repro.analysis.lint.registry import Rule, register
from repro.analysis.lint.rules.common import ImportMap, find_repo_file

#: Module-level import allowances per repro.* subpackage — the layering
#: DAG of docs/ARCHITECTURE.md.  ``utils`` is implicitly allowed
#: everywhere.  Two deliberate waivers are part of the architecture and
#: documented there: core <-> pipeline (service facades over the one
#: pipeline serve loop) and core <-> privacy (manager uses the sanitizer)
#: are mutual only through lazy imports on one side, so the module-level
#: graph stays acyclic.
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "utils": frozenset(),
    "analysis": frozenset(),
    "vectorstore": frozenset(),
    "embedding": frozenset(),
    "judge": frozenset(),
    "workload": frozenset({"vectorstore"}),
    "llm": frozenset({"embedding", "workload"}),
    "privacy": frozenset({"core", "workload"}),
    "runtime": frozenset(),
    "serving": frozenset({"analysis", "llm", "runtime", "workload"}),
    "core": frozenset({"analysis", "embedding", "llm", "pipeline", "privacy",
                       "serving", "vectorstore", "workload"}),
    "pipeline": frozenset({"baselines", "core", "embedding", "llm", "serving",
                           "workload"}),
    "baselines": frozenset({"core", "embedding", "llm", "vectorstore",
                            "workload"}),
    "persistence": frozenset({"analysis", "core", "vectorstore", "workload"}),
    # The gateway is the outermost layer — the network face over the whole
    # stack.  Nothing imports it back, so the DAG stays acyclic.
    "gateway": frozenset({"core", "llm", "persistence", "pipeline",
                          "runtime", "serving", "workload"}),
}

_HOOK_NAME = re.compile(r"^(on|before|after)_")


def _is_type_checking_guard(test: ast.AST) -> bool:
    dotted = dotted_name(test)
    return dotted is not None and dotted.split(".")[-1] == "TYPE_CHECKING"


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Imports that execute at import time (skips TYPE_CHECKING blocks)."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            if not _is_type_checking_guard(stmt.test):
                stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)


def _import_targets(stmt: ast.stmt) -> Iterator[str]:
    """``repro.*`` subpackages a module-level import statement pulls in."""
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]
    elif isinstance(stmt, ast.ImportFrom) and stmt.module is not None:
        parts = stmt.module.split(".")
        if parts[0] != "repro":
            return
        if len(parts) > 1:
            yield parts[1]
        else:
            # ``from repro import serving`` imports subpackages by name.
            for alias in stmt.names:
                yield alias.name


@register
class ImportLayeringRule(Rule):
    code = "ARCH001"
    name = "import-layering"
    summary = ("module-level import crosses the package-layering DAG of "
               "docs/ARCHITECTURE.md")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is None or not ctx.module.startswith("repro."):
            return
        parts = ctx.module.split(".")
        own = parts[1]
        if own not in ALLOWED_IMPORTS:
            if len(parts) == 2 and ctx.path.name != "__init__.py":
                return  # a plain module at the repro/ root, not a layer
            yield ctx.finding(
                ctx.tree, self.code,
                f"package 'repro.{own}' has no layering entry; add it to "
                "ALLOWED_IMPORTS and the docs/ARCHITECTURE.md layer map",
            )
            return
        allowed = ALLOWED_IMPORTS[own] | {own, "utils"}
        for stmt in _module_level_imports(ctx.tree):
            for target in _import_targets(stmt):
                if target not in ALLOWED_IMPORTS:
                    continue  # a plain module at repro/ root, not a layer
                if target not in allowed:
                    yield ctx.finding(
                        stmt, self.code,
                        f"'repro.{own}' must not import 'repro.{target}' at "
                        "module level (layering DAG, docs/ARCHITECTURE.md); "
                        "use a lazy or TYPE_CHECKING import if a reverse "
                        "reference is unavoidable",
                    )


@register
class ProtocolSurfaceRule(Rule):
    code = "ARCH002"
    name = "protocol-surface"
    summary = ("ServeMiddleware subclass declares an unknown hook, or an "
               "EventSource implementation is missing attach()")

    def __init__(self) -> None:
        self._hook_cache: dict = {}

    def _middleware_hooks(self, ctx: FileContext) -> frozenset[str]:
        protocols = find_repo_file(ctx, "pipeline", "protocols.py")
        if protocols not in self._hook_cache:
            try:
                tree = ast.parse(protocols.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):    # reported as that file's own
                tree = ast.Module(body=[], type_ignores=[])
            self._hook_cache[protocols] = frozenset(
                stmt.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and node.name == "ServeMiddleware"
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
                and not stmt.name.startswith("_"))
        return self._hook_cache[protocols]

    @staticmethod
    def _base_names(cls: ast.ClassDef) -> set[str]:
        names = set()
        for base in cls.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                names.add(dotted.split(".")[-1])
        return names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx)
        in_runtime = (ctx.module or "").startswith("repro.runtime")
        sees_event_source = (in_runtime
                             or imports.imports_from("repro.runtime"))
        for cls in ctx.nodes(ast.ClassDef):
            bases = self._base_names(cls)
            methods = {stmt.name for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef)}
            if "ServeMiddleware" in bases:
                hooks = self._middleware_hooks(ctx)
                for stmt in cls.body:
                    if not isinstance(stmt, ast.FunctionDef):
                        continue
                    if (_HOOK_NAME.match(stmt.name)
                            and stmt.name not in hooks):
                        yield ctx.finding(
                            stmt, self.code,
                            f"'{stmt.name}' is not a ServeMiddleware hook "
                            f"({', '.join(sorted(hooks))}); the pipeline "
                            "will never call it — likely a typo",
                        )
            is_source = "EventSource" in bases or (
                sees_event_source
                and cls.name.endswith("Source")
                and cls.name != "EventSource"
                and not cls.name.startswith("Test")  # pytest classes
                and not (bases - {"EventSource", "Protocol", "object"})
            )
            if is_source and "Protocol" not in bases:
                if "attach" not in methods:
                    yield ctx.finding(
                        cls, self.code,
                        f"event source '{cls.name}' does not define "
                        "attach(loop, cluster); the runtime cannot compose "
                        "it (EventSource protocol, docs/RUNTIME.md)",
                    )
                else:
                    attach = next(stmt for stmt in cls.body
                                  if isinstance(stmt, ast.FunctionDef)
                                  and stmt.name == "attach")
                    n_args = len(attach.args.args)
                    if n_args != 3:
                        yield ctx.finding(
                            attach, self.code,
                            f"'{cls.name}.attach' must accept exactly "
                            "(self, loop, cluster) — the EventSource "
                            f"protocol surface — but takes {n_args} "
                            "positional parameters",
                        )
