"""Shared helpers for rule implementations.

``ImportMap`` resolves call sites back to canonical dotted paths
(``np.random.default_rng(...)`` -> ``numpy.random.default_rng``) using
the file's own import statements, so the determinism rules key on what a
name *is bound to*, not what it happens to be spelled as.  ``find_repo_file``
locates the vocabulary files (``persistence/wal.py``,
``pipeline/protocols.py``, ``core/table.py``) the durability/architecture
rules parse, so no rule hard-codes a second copy of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.lint.engine import FileContext, dotted_name


class ImportMap:
    """What local names are bound to, per the file's import statements."""

    def __init__(self, ctx: FileContext) -> None:
        #: local alias -> imported module path (``np`` -> ``numpy``)
        self.modules: dict[str, str] = {}
        #: local name -> fully qualified origin
        #: (``default_rng`` -> ``numpy.random.default_rng``)
        self.names: dict[str, str] = {}
        for node in ctx.nodes(ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self.modules[local] = target
        for node in ctx.nodes(ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never shadow stdlib/numpy
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path for a Name/Attribute chain, or ``None``."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            base = self.modules[head]
        elif head in self.names:
            base = self.names[head]
        else:
            return None
        return f"{base}.{rest}" if rest else base

    def imports_from(self, prefix: str) -> bool:
        """Whether any import in the file targets ``prefix`` (or below)."""
        candidates = list(self.modules.values()) + list(self.names.values())
        return any(c == prefix or c.startswith(prefix + ".") for c in candidates)


#: The ``repro`` package this linter belongs to.
_OWN_TREE = Path(__file__).resolve().parents[3]


def find_repo_file(ctx: FileContext, *relative: str) -> Path:
    """``repro/<relative...>`` under the last ``repro`` component of the
    linted file's path when that tree holds it (fixture trees carrying
    their own ``wal.py`` are honored), else in the linter's own tree: a
    file in no ``repro`` tree (``tests/``) is held to the live one."""
    parts = ctx.path.parts
    if "repro" in parts:
        anchor = len(parts) - parts[::-1].index("repro")
        candidate = Path(*parts[:anchor]).joinpath(*relative)
        if candidate.is_file():
            return candidate
    return _OWN_TREE.joinpath(*relative)


def call_name(node: ast.Call) -> str | None:
    """Bare callable name for simple ``name(...)`` calls."""
    return node.func.id if isinstance(node.func, ast.Name) else None
