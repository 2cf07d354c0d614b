"""Docs stay honest: code blocks in README/docs must resolve.

Every ``import``/``from`` statement inside a fenced ``python`` block in
the user-facing docs — including parenthesized multi-line imports — is
executed against the installed package, so renaming or removing a public
symbol breaks this test (and CI) instead of silently rotting the
documentation.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "CONTRIBUTING.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
    REPO_ROOT / "docs" / "PIPELINE.md",
    REPO_ROOT / "docs" / "PERFORMANCE.md",
    REPO_ROOT / "docs" / "RUNTIME.md",
    REPO_ROOT / "docs" / "GATEWAY.md",
    REPO_ROOT / "docs" / "PERSISTENCE.md",
    REPO_ROOT / "docs" / "TESTING.md",
    REPO_ROOT / "docs" / "STATIC_ANALYSIS.md",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_IMPORT = re.compile(
    r"^(?:from\s+([\w.]+)\s+import\s+([\w, ]+)|import\s+([\w.]+))\s*(?:#.*)?$"
)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


def _import_statements(block: str) -> list[str]:
    """Import statements in a code block, multi-line parens joined.

    A ``from x import (a,\\n    b,\\n)`` statement is folded onto one
    line (comments stripped, parentheses removed, whitespace normalized)
    so the single-line parser below handles both spellings.
    """
    lines = block.splitlines()
    statements: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line.startswith(("import ", "from ")):
            i += 1
            continue
        code = _strip_comment(line)
        if "(" in code and ")" not in code:
            parts = [code]
            while ")" not in parts[-1]:
                i += 1
                if i >= len(lines):
                    raise AssertionError(
                        f"unterminated parenthesized import: {line!r}"
                    )
                parts.append(_strip_comment(lines[i].strip()))
            joined = " ".join(parts).replace("(", " ").replace(")", " ")
            statement = re.sub(r"\s+", " ", joined).strip().rstrip(",")
        else:
            statement = code.replace("(", " ").replace(")", " ")
            statement = re.sub(r"\s+", " ", statement).strip().rstrip(",")
        statements.append(statement)
        i += 1
    return statements


def _import_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = []
    for block in _FENCE.findall(text):
        lines.extend(_import_statements(block))
    return lines


def _doc_cases():
    for path in DOC_FILES:
        for line in _import_lines(path):
            yield pytest.param(path, line, id=f"{path.name}:{line}")


def test_doc_files_exist():
    for path in DOC_FILES:
        assert path.is_file(), f"{path} is missing"


def test_docs_have_code_blocks():
    for path in DOC_FILES:
        if path.name == "README.md":
            assert _import_lines(path), "README has no import lines to check"


def test_multiline_imports_are_parsed():
    """The parser folds parenthesized imports (a known former gap)."""
    block = (
        "from repro.persistence import (\n"
        "    Checkpointer,\n"
        "    WriteAheadLog,  # journal\n"
        ")\n"
        "import repro\n"
    )
    assert _import_statements(block) == [
        "from repro.persistence import Checkpointer, WriteAheadLog",
        "import repro",
    ]
    # An unbalanced paren inside a trailing comment is not a continuation.
    commented = "from repro.runtime import EventLoop  # (see determinism\n"
    assert _import_statements(commented) == [
        "from repro.runtime import EventLoop"
    ]


@pytest.mark.parametrize("path, line", _doc_cases())
def test_doc_imports_resolve(path: Path, line: str):
    match = _IMPORT.match(line)
    assert match, f"unparseable import line in {path.name}: {line!r}"
    from_module, names, plain_module = match.groups()
    if plain_module is not None:
        importlib.import_module(plain_module)
        return
    module = importlib.import_module(from_module)
    for name in (n.strip() for n in names.split(",")):
        if not name:
            continue
        assert hasattr(module, name), (
            f"{path.name} imports {name!r} from {from_module}, "
            f"which does not export it"
        )


#: ``wc -l`` over ``src/**/*.py`` may not exceed this.  A PR that grows
#: ``src/`` past it raises the number in its own diff and says in
#: ``CHANGES.md`` which deletion pays the growth back; a PR that shrinks
#: ``src/`` lowers it to its result rounded up to the next 50.
SRC_LINE_CEILING = 15_000


def test_src_stays_under_its_line_ceiling():
    total = sum(path.read_bytes().count(b"\n")
                for path in (REPO_ROOT / "src").rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ is {total} lines, over SRC_LINE_CEILING = {SRC_LINE_CEILING}: "
        "delete what pays for the growth, or raise the ceiling in this diff "
        "and name the payback in CHANGES.md"
    )
