"""reprolint: the repo's AST determinism-and-invariants linter.

Moves the coding rules behind the golden/warm-restart/chaos bit-identity
proofs (seeded RNG, virtual time, journaled cache mutations, stable
iteration, import layering) from CONTRIBUTING prose into a checked pass:

>>> python -m repro.analysis.lint src tests --format json

An inline ``# repro: allow[CODE]`` waiver on the flagged line is the one
way to accept a finding; the run fails exactly when an unsuppressed one
exists.  The rule catalog and the waiver syntax are documented in
``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.lint.cli import main
from repro.analysis.lint.engine import (
    Engine,
    FileContext,
    Finding,
    LintReport,
    iter_python_files,
    module_name_for,
)
from repro.analysis.lint.registry import Rule, all_rules, register, rule_classes

__all__ = [
    "Engine",
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "iter_python_files",
    "main",
    "module_name_for",
    "register",
    "rule_classes",
]
