"""reprolint engine: one parse per file, every rule dispatched over it.

The determinism contract of this repo (seeded RNG everywhere, no wall
clock in deterministic modules, journaled cache mutations, stable
iteration orders — the invariants behind the golden serve paths and the
warm-restart/chaos bit-identity proofs) used to live in CONTRIBUTING
prose.  This package turns it into a checked pass.

Design:

* **Single visit.**  Each file is read and ``ast.parse``\\ d exactly once.
  One walk builds a per-file node index (``nodes_by_type``) and a parent
  map; rules *query* the index instead of re-walking or re-parsing, so
  adding a rule costs one dict lookup per node type, not a tree pass.
* **Rules are registered classes** (:mod:`repro.analysis.lint.registry`)
  with a stable ``code`` (``DET001``, ``WAL001``, ``ARCH001``, ...).
  ``Engine`` instantiates a fresh rule set per run so rules may cache
  cross-file artifacts (e.g. the WAL record vocabulary) on ``self``.
* **Suppressions are inline and code-scoped.**  ``# repro: allow[CODE]``
  on the flagged line (comma-separated codes, or ``*``) drops the
  finding — the one way to accept one; suppressed findings are still
  counted and reported so a suppression sweep stays reviewable.

Findings are plain frozen dataclasses carrying ``path:line:col: CODE
message``; output formatting lives in :mod:`repro.analysis.lint.cli`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

_SUPPRESS = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

#: Pseudo rule code attached to findings for files that fail to parse.
PARSE_ERROR_CODE = "PARSE"


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for stable output."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


def module_name_for(path: Path) -> str | None:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    ``.../src/repro/core/cache.py`` -> ``repro.core.cache`` (the last
    ``repro`` path component wins, so fixture trees like
    ``tmp/src/repro/foo.py`` resolve the same way the real tree does).
    Files outside a ``repro`` package (tests, benchmarks, examples)
    return ``None`` — scoped rules skip them.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    mod_parts = parts[anchor:]
    leaf = mod_parts[-1]
    if not leaf.endswith(".py"):
        return None
    leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        mod_parts = mod_parts[:-1]
    else:
        mod_parts[-1] = leaf
    return ".".join(mod_parts)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FileContext:
    """Everything rules may ask about one parsed file.

    Built once per file by :class:`Engine`; holds the tree, a node index
    keyed by AST node type, a child->parent map, the derived module name,
    and the parsed inline suppressions.
    """

    def __init__(self, path: Path, display_path: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.module = module_name_for(path)
        self.nodes_by_type: dict[type, list[ast.AST]] = {}
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            self.nodes_by_type.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS.search(line)
            if match:
                codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
                self.suppressions[lineno] = codes

    def nodes(self, *types: type) -> Iterator[ast.AST]:
        """All nodes of the given AST types, in walk order."""
        for node_type in types:
            yield from self.nodes_by_type.get(node_type, [])

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.suppressions.get(finding.line, ())
        return finding.code in codes or "*" in codes


@dataclass
class LintReport:
    """The engine's output for one run over a set of paths."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_scanned: int

    @property
    def by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, deterministic .py list."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" in file.parts:
                    continue
                if any(part.startswith(".") for part in file.parts):
                    continue
                yield file
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


class Engine:
    """Run a rule set over files; one parse and one walk per file."""

    def __init__(self, rules: Iterable | None = None) -> None:
        if rules is None:
            from repro.analysis.lint.registry import all_rules
            rules = all_rules()
        self.rules = list(rules)

    def lint_file(self, path: str | Path,
                  display_path: str | None = None) -> tuple[list[Finding],
                                                            list[Finding]]:
        """Lint one file; returns ``(findings, suppressed_findings)``."""
        path = Path(path)
        display = display_path if display_path is not None else path.as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            finding = Finding(
                path=display, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
            return [finding], []
        ctx = FileContext(path, display, source, tree)
        kept: list[Finding] = []
        suppressed: list[Finding] = []
        for rule in self.rules:
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding):
                    suppressed.append(finding)
                else:
                    kept.append(finding)
        return kept, suppressed

    def lint_paths(self, paths: Sequence[str | Path]) -> LintReport:
        findings: list[Finding] = []
        suppressed: list[Finding] = []
        files = 0
        for file in iter_python_files(paths):
            files += 1
            kept, dropped = self.lint_file(file)
            findings.extend(kept)
            suppressed.extend(dropped)
        return LintReport(findings=sorted(findings),
                          suppressed=sorted(suppressed),
                          files_scanned=files)
