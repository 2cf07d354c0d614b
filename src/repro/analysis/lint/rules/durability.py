"""Durability rules (WAL family).

The snapshot + WAL recovery contract (``docs/PERSISTENCE.md``) only
holds if (a) every cache mutation reaches the journal and (b) every
field ``to_state`` writes is consumed by the paired ``from_state``.
These rules verify both structurally — WAL001 against the record
vocabulary parsed out of ``repro/persistence/wal.py`` itself (its
``RECORD_KINDS`` literal), so the rule cannot drift from the journal
implementation it polices.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Finding, dotted_name
from repro.analysis.lint.registry import Rule, register
from repro.analysis.lint.rules.common import find_repo_file


def _string_literals(path, names: set[str]) -> frozenset[str]:
    """String elements of the module-level tuple/list literals assigned to
    any of ``names`` in the file at ``path`` (none when it does not parse:
    the engine reports that file itself)."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return frozenset()
    found: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not names & {t.id for t in node.targets if isinstance(t, ast.Name)}:
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str):
                    found.add(elt.value)
    return frozenset(found)


def _is_example_cache_class(cls: ast.ClassDef) -> bool:
    if cls.name == "ExampleCache" or cls.name.endswith("ExampleCache"):
        return True
    for base in cls.bases:
        dotted = dotted_name(base)
        if dotted is not None and dotted.split(".")[-1].endswith("ExampleCache"):
            return True
    return False


@register
class JournaledMutationRule(Rule):
    code = "WAL001"
    name = "unjournaled-cache-mutation"
    summary = ("ExampleCache method mutates example/index state without "
               "invoking the journal; WAL recovery would diverge")

    #: Attribute calls on ``self._examples`` that change membership.
    _DICT_MUTATORS = frozenset({"pop", "popitem", "clear", "update",
                                "setdefault"})

    def __init__(self) -> None:
        self._kind_cache: dict = {}

    def _record_kinds(self, ctx: FileContext) -> frozenset[str]:
        # The ``RECORD_KINDS`` literal of ``persistence/wal.py``: the one
        # declaration the frame writer, the reader and the CLI go by.
        wal = find_repo_file(ctx, "persistence", "wal.py")
        if wal not in self._kind_cache:
            self._kind_cache[wal] = _string_literals(wal, {"RECORD_KINDS"})
        return self._kind_cache[wal]

    def _mutates_cache_state(self, method: ast.FunctionDef) -> ast.AST | None:
        """First node mutating ``self._examples`` or the index, if any."""
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if target in ("self._index.add", "self._index.remove"):
                    return node
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._DICT_MUTATORS
                        and dotted_name(node.func.value) == "self._examples"):
                    return node
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for tgt in targets:
                    if (isinstance(tgt, ast.Subscript)
                            and dotted_name(tgt.value) == "self._examples"):
                        return node
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    if (isinstance(tgt, ast.Subscript)
                            and dotted_name(tgt.value) == "self._examples"):
                        return node
        return None

    @staticmethod
    def _touches_journal(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if (isinstance(node, ast.Attribute)
                    and dotted_name(node) == "self._journal"):
                return True
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func) == "self._note_search"):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ctx.nodes(ast.ClassDef):
            if not _is_example_cache_class(cls):
                continue
            for stmt in cls.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                if stmt.name == "__init__":
                    continue  # construction precedes journal attachment
                mutation = self._mutates_cache_state(stmt)
                if mutation is not None and not self._touches_journal(stmt):
                    yield ctx.finding(
                        stmt, self.code,
                        f"method '{stmt.name}' mutates cache example/index "
                        "state but never touches self._journal; attach-time "
                        "recovery (docs/PERSISTENCE.md) requires every "
                        "mutation to be journaled",
                    )
        # Journal invocations anywhere in repro.* must use a record kind
        # the WAL dispatcher actually understands (typos surface at
        # recovery time otherwise, long after the journal was written).
        if ctx.module is None or not ctx.module.startswith("repro."):
            return
        if ctx.module == "repro.persistence.wal":
            return  # the vocabulary definition site itself
        kinds = self._record_kinds(ctx)
        for node in ctx.nodes(ast.Call):
            target = dotted_name(node.func)
            if target is None or target.split(".")[-1] not in (
                    "journal", "_journal"):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if first.value not in kinds:
                    yield ctx.finding(
                        node, self.code,
                        f"journal record kind {first.value!r} is not in the "
                        "WAL vocabulary "
                        f"({', '.join(sorted(kinds))}); recovery would "
                        "reject this record",
                    )


#: Only these modules may write table slots directly: the table itself and
#: the Example property setters layered over it.
_TABLE_WRITER_MODULES = ("repro.core.table", "repro.core.example")


@register
class TableBookkeepingBypassRule(Rule):
    code = "WAL003"
    name = "table-bookkeeping-bypass"
    summary = ("bookkeeping field written around the Example property "
               "setters / ExampleTable; the columnar slot and the object "
               "would desynchronize")

    def __init__(self) -> None:
        self._field_cache: dict = {}

    def _table_fields(self, ctx: FileContext) -> frozenset[str]:
        # The schema literals of ``core/table.py``, so the vocabulary cannot
        # drift from the schema this rule polices.
        table = find_repo_file(ctx, "core", "table.py")
        if table not in self._field_cache:
            self._field_cache[table] = _string_literals(
                table, {"BOOKKEEPING_COLUMNS", "EMA_STREAMS"})
        return self._field_cache[table]

    @staticmethod
    def _is_table_field(name: object, fields: frozenset[str]) -> bool:
        if not isinstance(name, str):
            return False
        return name in fields or name.split("__")[0] in fields

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module in _TABLE_WRITER_MODULES:
            return
        fields = self._table_fields(ctx)
        for node in ctx.nodes(ast.Assign, ast.AugAssign):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for tgt in targets:
                if not isinstance(tgt, ast.Subscript):
                    continue
                base = tgt.value
                # ex.__dict__["quality"] = ...: a write the property
                # setter never sees.
                if (isinstance(base, ast.Attribute)
                        and base.attr == "__dict__"
                        and isinstance(tgt.slice, ast.Constant)
                        and self._is_table_field(tgt.slice.value, fields)):
                    yield ctx.finding(
                        node, self.code,
                        f"__dict__ write to table-backed field "
                        f"{tgt.slice.value!r} bypasses the Example property "
                        "setter; mutate the attribute (or go through "
                        "ExampleTable) so the columnar slot stays in sync",
                    )
                    continue
                # table._cols[...]... = ...: raw column-slot writes belong
                # to ExampleTable/Example only.
                probe = base
                while isinstance(probe, ast.Subscript):
                    probe = probe.value
                if isinstance(probe, ast.Attribute) and probe.attr == "_cols":
                    yield ctx.finding(
                        node, self.code,
                        "direct ExampleTable._cols write outside "
                        "repro.core.table/example; use the Example property "
                        "setters or an ExampleTable method",
                    )
                    continue
                # table.col("quality")[rows] = ...: writing through the
                # column view mutates slots behind the owners' backs.
                if (isinstance(base, ast.Call)
                        and isinstance(base.func, ast.Attribute)
                        and base.func.attr == "col" and base.args):
                    first = base.args[0]
                    if (isinstance(first, ast.Constant)
                            and self._is_table_field(first.value, fields)):
                        yield ctx.finding(
                            node, self.code,
                            f"write through .col({first.value!r}) view "
                            "outside repro.core.table/example; column views "
                            "are read-only surfaces for scoring/eviction",
                        )
        for node in ctx.nodes(ast.Call):
            # object.__setattr__(ex, "quality", ...): skips the property.
            if dotted_name(node.func) != "object.__setattr__":
                continue
            if len(node.args) < 3:
                continue
            name = node.args[1]
            if (isinstance(name, ast.Constant)
                    and self._is_table_field(name.value, fields)):
                yield ctx.finding(
                    node, self.code,
                    f"object.__setattr__ on table-backed field "
                    f"{name.value!r} bypasses the Example property setter; "
                    "assign the attribute normally",
                )


@register
class SnapshotFieldPairingRule(Rule):
    code = "WAL002"
    name = "snapshot-field-pairing"
    summary = ("to_state writes a field the paired from_state never "
               "reads (or vice versa); restores would drop state")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ctx.nodes(ast.ClassDef):
            methods = {stmt.name: stmt for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef)}
            to_state = methods.get("to_state")
            from_state = methods.get("from_state")
            if to_state is None or from_state is None:
                continue
            produced: set[str] = set()
            for node in ast.walk(to_state):
                if isinstance(node, ast.Return) and node.value is not None:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Dict):
                            for key in sub.keys:
                                if isinstance(key, ast.Constant) and isinstance(
                                        key.value, str):
                                    produced.add(key.value)
            # The state-dict parameter is the first argument after cls/self.
            params = [a.arg for a in from_state.args.args
                      if a.arg not in ("self", "cls")]
            state_param = params[0] if params else None
            consumed: set[str] = set()
            strict_reads: dict[str, ast.AST] = {}
            for node in ast.walk(from_state):
                if isinstance(node, ast.Subscript):
                    key = node.slice
                    if isinstance(key, ast.Constant) and isinstance(
                            key.value, str):
                        consumed.add(key.value)
                        if (isinstance(node.value, ast.Name)
                                and node.value.id == state_param):
                            strict_reads.setdefault(key.value, node)
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get" and node.args):
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                            first.value, str):
                        consumed.add(first.value)
            for key in sorted(produced - consumed):
                yield ctx.finding(
                    to_state, self.code,
                    f"{cls.name}.to_state writes snapshot field {key!r} but "
                    f"from_state never reads it; the field would be lost on "
                    "restore",
                )
            for key, node in sorted(strict_reads.items()):
                if key not in produced:
                    yield ctx.finding(
                        node, self.code,
                        f"{cls.name}.from_state reads snapshot field {key!r} "
                        "which to_state never writes; restore would raise "
                        "KeyError (use .get(...) only for versioned "
                        "back-compat fields)",
                    )
