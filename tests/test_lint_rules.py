"""Per-rule fixture tests for reprolint (docs/STATIC_ANALYSIS.md).

Every registered rule gets at least one failing fixture (the rule fires)
and at least one passing fixture (the rule stays quiet on the sanctioned
idiom), all routed through the real engine so suppression, module
scoping, and the single-parse dispatch path are exercised too.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import Engine, all_rules, rule_classes
from repro.analysis.lint.rules.durability import DEFAULT_RECORD_KINDS

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, relpath: str, source: str) -> list:
    """Write ``source`` under ``tmp_path/relpath`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    findings, _ = Engine().lint_file(path)
    return findings


def codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestRegistry:
    def test_eight_plus_rules_registered(self):
        assert len(rule_classes()) >= 8

    def test_expected_codes_present(self):
        expected = {"DET001", "DET002", "DET003", "DET004", "DET005",
                    "WAL001", "WAL002", "WAL003", "ARCH001", "ARCH002"}
        assert expected <= set(rule_classes())

    def test_fresh_instances_per_call(self):
        a, b = all_rules(), all_rules()
        assert [r.code for r in a] == [r.code for r in b]
        assert all(x is not y for x, y in zip(a, b))


class TestDET001UnseededRng:
    def test_fires_on_global_and_unseeded_rng(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "import random\n"
            "import numpy as np\n"
            "from numpy.random import default_rng\n"
            "a = random.random()\n"
            "b = np.random.rand(3)\n"
            "c = default_rng()\n"
            "d = np.random.default_rng()\n"
        ))
        assert codes(found).count("DET001") == 4

    def test_quiet_on_seeded_generators(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "import numpy as np\n"
            "from repro.utils.rng import make_rng\n"
            "a = np.random.default_rng(42)\n"
            "b = make_rng(7)\n"
            "c = a.integers(0, 10)\n"
        ))
        assert "DET001" not in codes(found)

    def test_utils_rng_module_is_exempt(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/utils/rng.py", (
            "import numpy as np\n"
            "def make_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ))
        assert "DET001" not in codes(found)

    def test_fires_outside_repro_tree_too(self, tmp_path):
        found = lint_source(tmp_path, "scripts/gen.py", (
            "import random\nx = random.choice([1, 2])\n"
        ))
        assert "DET001" in codes(found)


class TestDET002WallClock:
    def test_fires_inside_repro_modules(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/serving/x.py", (
            "import time\n"
            "from datetime import datetime\n"
            "t0 = time.time()\n"
            "t1 = time.perf_counter()\n"
            "t2 = datetime.now()\n"
        ))
        assert codes(found).count("DET002") == 3

    def test_quiet_outside_repro_modules(self, tmp_path):
        # benchmarks/ and tests/ time things legitimately.
        found = lint_source(tmp_path, "benchmarks/perf.py", (
            "import time\nt0 = time.perf_counter()\n"
        ))
        assert "DET002" not in codes(found)

    def test_quiet_on_simclock(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/serving/x.py", (
            "from repro.utils.clock import SimClock\n"
            "clock = SimClock()\n"
            "now = clock.now\n"
        ))
        assert "DET002" not in codes(found)


class TestDET003SetIteration:
    def test_fires_on_set_literal_and_call_iteration(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "for a in {'x', 'y'}:\n    print(a)\n"
            "for b in set(['x', 'y']):\n    print(b)\n"
            "c = list(set('abc') | set('def'))\n"
        ))
        assert codes(found).count("DET003") == 3

    def test_fires_on_set_typed_name(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "pending = {'b', 'a'}\n"
            "for name in pending:\n    print(name)\n"
            "ordered = list(pending)\n"
        ))
        assert codes(found).count("DET003") == 2

    def test_quiet_on_sorted_and_membership(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "pending = {'b', 'a'}\n"
            "for name in sorted(pending):\n    print(name)\n"
            "ok = 'a' in pending\n"
            "n = len(set('abc'))\n"
            "items = sorted(set('abc') | set('def'))\n"
        ))
        assert "DET003" not in codes(found)

    def test_quiet_when_name_rebound_to_non_set(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "ids = set('abc')\n"
            "ids = sorted(ids)\n"
            "for i in ids:\n    print(i)\n"
        ))
        assert "DET003" not in codes(found)


class TestDET004DictMutation:
    def test_fires_on_pop_and_del_during_iteration(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "d = {'a': 1}\n"
            "for k in d:\n"
            "    d.pop(k)\n"
            "for k in d.keys():\n"
            "    del d[k]\n"
        ))
        assert codes(found).count("DET004") == 2

    def test_quiet_when_iterating_a_copy(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "d = {'a': 1}\n"
            "for k in list(d):\n"
            "    d.pop(k)\n"
            "for k in sorted(d):\n"
            "    d.pop(k)\n"
        ))
        assert "DET004" not in codes(found)


class TestDET005ImplicitFloat64:
    def test_fires_on_dtypeless_constructors_in_vectorstore(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "import numpy as np\n"
            "from numpy import zeros\n"
            "a = np.array([1.0, 2.0])\n"
            "b = np.zeros(8)\n"
            "c = np.empty((4, 4))\n"
            "d = np.full((2, 2), 0.5)\n"
            "e = zeros(3)\n"
        ))
        assert codes(found).count("DET005") == 5

    def test_quiet_when_dtype_is_pinned(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "import numpy as np\n"
            "a = np.array([1.0], dtype=np.float32)\n"
            "b = np.zeros(8, np.float32)\n"          # positional dtype
            "c = np.full((2, 2), 0.5, np.float32)\n"
            "d = np.asarray([1.0])\n"                # converter, not allocator
            "e = np.ascontiguousarray(a)\n"
        ))
        assert "DET005" not in codes(found)

    def test_quiet_outside_the_vectorstore_package(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/x.py", (
            "import numpy as np\n"
            "a = np.array([1.0, 2.0])\n"
            "b = np.zeros(8)\n"
        ))
        assert "DET005" not in codes(found)


_CACHE_PREAMBLE = "class MyExampleCache:\n"


class TestWAL001JournaledMutation:
    def test_fires_on_unjournaled_mutation(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/cache.py", (
            _CACHE_PREAMBLE
            + "    def sneaky(self, ex):\n"
            "        self._examples[ex.example_id] = ex\n"
            "        self._index.add(ex.example_id, ex.embedding)\n"
        ))
        assert "WAL001" in codes(found)

    def test_quiet_on_journaled_mutation(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/cache.py", (
            _CACHE_PREAMBLE
            + "    def add(self, ex):\n"
            "        self._examples[ex.example_id] = ex\n"
            "        self._index.add(ex.example_id, ex.embedding)\n"
            "        if self._journal is not None:\n"
            "            self._journal('add', ex)\n"
            "    def __init__(self):\n"
            "        self._examples = {}\n"
        ))
        assert "WAL001" not in codes(found)

    def test_fires_on_unknown_record_kind(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/cache.py", (
            _CACHE_PREAMBLE
            + "    def odd(self, ex):\n"
            "        self._examples[ex.example_id] = ex\n"
            "        self._journal('upsert', ex)\n"
        ))
        assert sum(1 for f in found
                   if f.code == "WAL001" and "upsert" in f.message) == 1

    def test_vocabulary_is_parsed_from_live_wal(self, tmp_path):
        """A fixture wal.py narrows the accepted kinds structurally."""
        wal = tmp_path / "src/repro/persistence/wal.py"
        wal.parent.mkdir(parents=True, exist_ok=True)
        wal.write_text(
            "RECORD_KINDS = ('put', 'drop',\n"
            "                'mark')\n"
            "class WriteAheadLog:\n"
            "    def record(self, kind, payload):\n"
            "        if kind == 'add':\n"      # a comparison declares nothing
            "            pass\n",
            encoding="utf-8",
        )
        found = lint_source(tmp_path, "src/repro/core/cache.py", (
            _CACHE_PREAMBLE
            + "    def add(self, ex):\n"
            "        self._examples[ex.example_id] = ex\n"
            "        self._journal('add', ex)\n"  # valid live kind, not here
        ))
        assert any(f.code == "WAL001" and "'add'" in f.message for f in found)

    def test_default_kinds_match_live_wal_vocabulary(self):
        """The fallback vocabulary cannot drift from persistence/wal.py:
        the literal the rule parses is the one the codec runs on."""
        from repro.analysis.lint.rules.durability import _kinds_from_wal
        from repro.persistence.wal import RECORD_KINDS
        live = _kinds_from_wal(REPO_ROOT / "src/repro/persistence/wal.py")
        assert live == DEFAULT_RECORD_KINDS == frozenset(RECORD_KINDS)
        assert len(RECORD_KINDS) == len(DEFAULT_RECORD_KINDS)


class TestWAL002SnapshotPairing:
    def test_fires_on_written_but_never_read_field(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "class Thing:\n"
            "    def to_state(self):\n"
            "        return {'a': 1, 'b': 2}\n"
            "    @classmethod\n"
            "    def from_state(cls, state):\n"
            "        obj = cls()\n"
            "        obj.a = state['a']\n"
            "        return obj\n"
        ))
        assert sum(1 for f in found
                   if f.code == "WAL002" and "'b'" in f.message) == 1

    def test_fires_on_read_but_never_written_field(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "class Thing:\n"
            "    def to_state(self):\n"
            "        return {'a': 1}\n"
            "    @classmethod\n"
            "    def from_state(cls, state):\n"
            "        obj = cls()\n"
            "        obj.a = state['a']\n"
            "        obj.c = state['c']\n"
            "        return obj\n"
        ))
        assert sum(1 for f in found
                   if f.code == "WAL002" and "'c'" in f.message) == 1

    def test_quiet_on_paired_fields_and_get_backcompat(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "class Thing:\n"
            "    def to_state(self):\n"
            "        return {'a': 1, 'nested': {'k': [1]}}\n"
            "    @classmethod\n"
            "    def from_state(cls, state):\n"
            "        obj = cls()\n"
            "        obj.a = state['a']\n"
            "        obj.k = state['nested']['k']\n"
            "        obj.legacy = state.get('legacy', 0)\n"
            "        return obj\n"
        ))
        assert "WAL002" not in codes(found)


class TestWAL003TableBookkeepingBypass:
    def test_fires_on_dict_write_to_table_field(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/manager.py", (
            "def sneaky(ex):\n"
            "    ex.__dict__['quality'] = 0.9\n"
            "    ex.__dict__['access_count'] = 3\n"
        ))
        assert codes(found).count("WAL003") == 2

    def test_fires_on_object_setattr_bypass(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/persistence/wal.py", (
            "def sneaky(ex):\n"
            "    object.__setattr__(ex, 'gain_ema', None)\n"
        ))
        assert sum(1 for f in found
                   if f.code == "WAL003" and "'gain_ema'" in f.message) == 1

    def test_fires_on_raw_column_writes(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/selector.py", (
            "def sneaky(table, rows):\n"
            "    table._cols['quality'][rows] = 1.0\n"
            "    table.col('offload_gain__value')[rows] = 0.0\n"
        ))
        assert codes(found).count("WAL003") == 2

    def test_quiet_on_property_writes_and_plain_dict_keys(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/core/manager.py", (
            "def fine(ex, table, stats):\n"
            "    ex.quality = 0.9\n"
            "    ex.access_count += 1\n"
            "    ex.__dict__['_difficulty_memo'] = {}\n"
            "    stats['quality'] = 1.0\n"
            "    values = table.col('quality')\n"
        ))
        assert "WAL003" not in codes(found)

    def test_table_and_example_modules_are_exempt(self, tmp_path):
        for relpath in ("src/repro/core/table.py",
                        "src/repro/core/example.py"):
            found = lint_source(tmp_path, relpath, (
                "def fset(self, table, row, value):\n"
                "    table._cols['quality'][row] = value\n"
            ))
            assert "WAL003" not in codes(found), relpath

    def test_vocabulary_is_parsed_from_live_table(self, tmp_path):
        """A fixture table.py narrows the protected fields structurally."""
        table = tmp_path / "src/repro/core/table.py"
        table.parent.mkdir(parents=True, exist_ok=True)
        table.write_text(
            "BOOKKEEPING_COLUMNS = ('freshness',)\n"
            "EMA_STREAMS = ('drift_ema',)\n",
            encoding="utf-8",
        )
        found = lint_source(tmp_path, "src/repro/core/manager.py", (
            "def f(ex):\n"
            "    ex.__dict__['freshness'] = 1\n"
            "    ex.__dict__['quality'] = 0.5\n"  # not a field in this tree
        ))
        assert sum(1 for f in found
                   if f.code == "WAL003" and "'freshness'" in f.message) == 1
        assert not any(f.code == "WAL003" and "'quality'" in f.message
                       for f in found)

    def test_default_fields_match_live_table_schema(self):
        """The fallback vocabulary cannot drift from core/table.py."""
        from repro.analysis.lint.rules.durability import (
            DEFAULT_TABLE_FIELDS,
            _fields_from_table,
        )
        live = _fields_from_table(REPO_ROOT / "src/repro/core/table.py")
        assert live == DEFAULT_TABLE_FIELDS


class TestARCH001ImportLayering:
    def test_fires_on_upward_import(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "from repro.serving.engine import RequestBatcher\n"
        ))
        assert "ARCH001" in codes(found)

    def test_quiet_on_allowed_and_guarded_imports(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/vectorstore/x.py", (
            "from typing import TYPE_CHECKING\n"
            "from repro.utils.rng import make_rng\n"
            "if TYPE_CHECKING:\n"
            "    from repro.serving.cluster import ClusterSimulator\n"
            "def lazy():\n"
            "    from repro.serving.engine import RequestBatcher\n"
            "    return RequestBatcher\n"
        ))
        assert "ARCH001" not in codes(found)

    def test_fires_on_unregistered_package(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/newpkg/__init__.py", "x = 1\n")
        assert any(f.code == "ARCH001" and "layering entry" in f.message
                   for f in found)

    def test_quiet_outside_repro(self, tmp_path):
        found = lint_source(tmp_path, "tests/test_x.py", (
            "from repro.serving.engine import RequestBatcher\n"
        ))
        assert "ARCH001" not in codes(found)


class TestARCH002ProtocolSurface:
    def test_fires_on_typoed_middleware_hook(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/pipeline/x.py", (
            "from repro.pipeline.protocols import ServeMiddleware\n"
            "class M(ServeMiddleware):\n"
            "    def after_compelte(self, ctx):\n"
            "        pass\n"
            "    def after_complete(self, ctx):\n"
            "        pass\n"
            "    def helper(self):\n"
            "        pass\n"
        ))
        hits = [f for f in found if f.code == "ARCH002"]
        assert len(hits) == 1 and "after_compelte" in hits[0].message

    def test_fires_on_source_without_attach(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/runtime/x.py", (
            "from repro.runtime.loop import EventLoop\n"
            "class BrokenTickSource:\n"
            "    def on_tick(self):\n"
            "        pass\n"
        ))
        assert any(f.code == "ARCH002" and "attach" in f.message
                   for f in found)

    def test_fires_on_wrong_attach_arity(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/runtime/x.py", (
            "class NarrowSource:\n"
            "    def attach(self, loop):\n"
            "        pass\n"
        ))
        assert any(f.code == "ARCH002" and "exactly" in f.message
                   for f in found)

    def test_quiet_on_conforming_source_and_test_classes(self, tmp_path):
        found = lint_source(tmp_path, "src/repro/runtime/x.py", (
            "class GoodSource:\n"
            "    def attach(self, loop, cluster):\n"
            "        pass\n"
            "class TestTraceArrivalSource:\n"
            "    def test_it(self):\n"
            "        pass\n"
        ))
        assert "ARCH002" not in codes(found)


class TestLiveTreeIsClean:
    """The acceptance gate: the merged tree lints clean, baseline empty."""

    def test_src_and_tests_have_no_findings(self):
        report = Engine().lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert report.findings == [], [f.format() for f in report.findings]

    def test_committed_baseline_is_empty(self):
        from repro.analysis.lint import Baseline
        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        assert baseline.entries == {}


class TestDocsCatalog:
    """Meta-test: every registered rule is documented, by code."""

    def test_every_rule_code_in_static_analysis_doc(self):
        doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(
            encoding="utf-8")
        for code, cls in rule_classes().items():
            assert code in doc, f"rule {code} missing from STATIC_ANALYSIS.md"
            assert cls.name in doc, (
                f"rule {code} slug '{cls.name}' missing from "
                "STATIC_ANALYSIS.md"
            )
