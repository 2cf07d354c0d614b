"""Docs stay honest: code blocks in README/docs must resolve.

Every ``import``/``from`` statement inside a fenced ``python`` block in
the user-facing docs — including parenthesized multi-line imports — is
executed against the installed package, so renaming or removing a public
symbol breaks this test (and CI) instead of silently rotting the
documentation.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
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
#: ``src/`` lowers it to its result.
SRC_LINE_CEILING = 13_276


def test_src_stays_under_its_line_ceiling():
    total = sum(path.read_bytes().count(b"\n")
                for path in (REPO_ROOT / "src").rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ is {total} lines, over SRC_LINE_CEILING = {SRC_LINE_CEILING}: "
        "delete what pays for the growth, or raise the ceiling in this diff "
        "and name the payback in CHANGES.md"
    )


#: Code no entry point reached (the service, the gateway, the persistence
#: CLI, ``benchmarks/``, ``bench_e2e/``, ``examples/``) that was deleted
#: from ``src/``: modules, helpers only tests called, and their package
#: re-exports.  A test that needs one keeps a local copy.  Also the second
#: router shape: every cluster router is ``route_batch(requests, sim)``,
#: and a request routed alone is a batch of one.  Also the second spelling
#: of every comparison system: each baseline class implements the pipeline
#: protocols itself, and no adapter wraps it.  Also the second index layout:
#: one ``ExampleCache`` over one ``IVFIndex``, and no sharded fan-out.  Also
#: every config field no experiment set: each is a module constant beside
#: the module that reads it (``OPTION_SURFACE`` lists what stays settable).
#: Also the second way to assemble a system: no string-keyed registry, no
#: ``from_config``, no policy no experiment runs, and no copy of the
#: ``ServeContext`` a serve returns.  Also the second check of a record:
#: ``check_record`` beside ``repro.workload.request.RECORD`` is the one.
#: Also the in-place write of a cached example: add and remove are the
#: cache's only writes.  Also the classes that held nothing but calibrated
#: constants (now module functions over them), and the embedder of text
#: without a latent, which no request is.  Also the event-kind vocabulary
#: and its handler registry: an event is a callback at a time.  Also the
#: second stage-1 kernel: a lone query is a search batch of one.  Also the
#: exact-DP retention solver no workload ran, its two size caps and the
#: second kernel entry: the greedy is the one solver.
DELETED_FROM_SRC = [
    "repro.llm.prompts",
    "repro.workload.preprocess",
    "repro.baselines.naive_cache",
    "repro.baselines.NaiveCachePolicy",
    "repro.workload.deduplicate",
    "repro.workload.filter_non_english",
    "repro.workload.feedback.FeedbackSimulator.spawn",
    "repro.workload.trace.ArrivalTrace.scaled_to",
    "repro.workload.trace.ArrivalTrace.total_expected_requests",
    "repro.utils.truncate_tokens",
    "repro.utils.tokens.truncate_tokens",
    "repro.analysis.cdf_points",
    "repro.analysis.stats.cdf_points",
    "repro.workload.adversarial.TenantSkewTrace.tenant_rates",
    "repro.workload.adversarial.TenantSkewTrace.hot_tenant_share",
    "repro.serving.autoscaler.BiasAutoscaler.net_replicas_delta",
    "repro.serving.metrics.mean_latency_fn",
    "repro.workload.topics.TopicModel.base_vector",
    "repro.serving.BatchedRetrievalEngine",
    "repro.serving.engine.BatchedRetrievalEngine",
    "repro.serving.engine.BatchRouterFn",
    "repro.serving.cluster.RouterFn",
    "repro.runtime.BatchFlushSource",
    "repro.runtime.sources.BatchFlushSource",
    "repro.pipeline.core.ICCachePipeline.cluster_router",
    "repro.pipeline.core.ICCachePipeline.cluster_batch_router",
    "repro.core.service.ICCacheService.cluster_router",
    "repro.core.service.ICCacheService.cluster_batch_router",
    "repro.core.service.ICCacheService.on_complete",
    "repro.runtime.chaos.ServiceHolder.route",
    "repro.runtime.loop.EventLoop.handles",
    "repro.pipeline.baselines",
    "repro.pipeline.baselines.ViewExample",
    "repro.pipeline.baselines.SemanticCacheAdapter",
    "repro.pipeline.baselines.HitRouting",
    "repro.pipeline.baselines.RAGRetrieval",
    "repro.pipeline.baselines.RouteLLMRouting",
    "repro.baselines.CacheLookup",
    "repro.baselines.semantic_cache.CacheLookup",
    "repro.baselines.semantic_cache.SemanticCache.lookup",
    "repro.baselines.semantic_cache.SemanticCache.entry",
    "repro.baselines.rag.LongRAGRetriever.prompt_tokens",
    "repro.baselines.rag.LongRAGRetriever.retrieve",
    "repro.vectorstore.sharded",
    "repro.vectorstore.ShardedIndex",
    "repro.core.ShardedExampleCache",
    "repro.core.cache.ShardedExampleCache",
    "repro.core.config.ICCacheConfig.cache_shards",
    "repro.persistence.wal._RETRAIN",
    "repro.persistence.wal._encode_retrain",
    "repro.persistence.wal._decode_retrain",
    "repro.vectorstore.FlatIndex.search",
    "repro.vectorstore.flat.FlatIndex.search",
    *(f"repro.core.config.SelectorConfig.{name}" for name in (
        "utility_threshold", "threshold_grid", "adapt_every",
        "diversity_weight", "token_cost_weight")),
    *(f"repro.core.config.RouterConfig.{name}" for name in (
        "ridge", "noise_var", "load_threshold", "bias_gamma",
        "load_ema_alpha", "uncertainty_std_gate", "uncertainty_temp",
        "exploration_floor")),
    *(f"repro.core.config.ManagerConfig.{name}" for name in (
        "decay_factor", "decay_period_s", "admission_dedupe_sim",
        "replay_max_iterations", "replay_samples", "replay_cost_per_example",
        "knapsack_exact_below")),
    *(f"repro.core.config.ICCacheConfig.{name}" for name in (
        "embedding_dim", "embedder_noise", "feedback_sample_rate",
        "feedback_noise")),
    "repro.pipeline.registry",
    "repro.pipeline.core.ICCachePipeline.from_config",
    "repro.pipeline.FixedModelRouting",
    "repro.pipeline.policies.FixedModelRouting",
    "repro.pipeline.RandomRetentionAdmission",
    "repro.pipeline.policies.RandomRetentionAdmission",
    "repro.pipeline.policies.build_ic_cache",
    "repro.pipeline.policies.build_naive_cache",
    "repro.pipeline.policies.build_rag",
    "repro.pipeline.context.ServeContext.tenant",
    "repro.core.ServeOutcome",
    "repro.core.service.ServeOutcome",
    "repro.core.service.ICCacheService._outcome",
    "repro.gateway.api._check_journalable",
    "repro.core.config.IndexConfig",
    "repro.core.IndexConfig",
    "repro.core.cache.ExampleCache.overwrite",
    "repro.core.table.ExampleTable.replace",
    "repro.vectorstore.ivf.IVFIndex._drop",
    *(f"repro.workload{module}.{name}" for module in ("", ".adversarial")
      for name in ("TenantSkewTrace", "tenant_skew_trace", "TopicBurstTrace",
                   "topic_burst_trace", "CompositeTrace", "composite_trace")),
    "repro.llm.QualityModel",
    "repro.llm.quality.QualityModel",
    "repro.llm.ICLBoostModel",
    "repro.llm.icl.ICLBoostModel",
    "repro.embedding.HashingEmbedder",
    "repro.embedding.embedder.HashingEmbedder",
    "repro.runtime.Event",
    "repro.runtime.loop.Event",
    "repro.runtime.loop.EventLoop.on",
    "repro.runtime.loop.EventLoop.handler",
    *(f"repro.runtime{module}.{name}" for module in ("", ".sources")
      for name in ("ARRIVAL", "FLUSH", "FINISH", "AUTOSCALE_TICK",
                   "MAINTENANCE_TICK", "CHECKPOINT_TICK")),
    *(f"repro.runtime{module}.{name}" for module in ("", ".chaos")
      for name in ("REPLICA_CHAOS", "CRASH_RECOVERY")),
    "repro.runtime.sources._register_dispatch",
    "repro.runtime.sources._dispatch_to_source",
    "repro.serving.cluster.ClusterSimulator.dropped",
    "repro.core.manager.KNAPSACK_EXACT_BELOW",
    *(f"repro.analysis.knapsack.{name}" for name in (
        "knapsack_keep_mask", "DP_MAX_BYTES", "_solve_dp", "_greedy",
        "_solve")),
]

#: Every value a caller can set, each with the caller that sets a second
#: value (``docs/ARCHITECTURE.md``'s configuration table says which).
OPTION_SURFACE = {
    "ICCacheConfig": ["small_model", "large_model", "seed", "selector",
                      "router", "manager"],
    "SelectorConfig": ["pre_k", "max_examples", "context_budget_tokens"],
    "RouterConfig": ["cost_penalty", "bias_lambda"],
    "ManagerConfig": ["capacity_bytes", "sanitize"],
}


def test_the_option_surface_is_the_ten_kept_values():
    from repro.core import config

    assert {name: [f.name for f in dataclasses.fields(getattr(config, name))]
            for name in OPTION_SURFACE} == OPTION_SURFACE
    nested = {"selector", "router", "manager"}
    assert sum(len(set(names) - nested)
               for names in OPTION_SURFACE.values()) == 10


_CONSTANT_ROW = re.compile(r"^\| `(repro\.[\w.]+)` \| ([^|]+?) \|", re.M)


def _constant_rows():
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    return _CONSTANT_ROW.findall(text)


def test_the_constants_table_lists_each_deleted_knob_once():
    assert len(dict(_constant_rows())) == len(_constant_rows()) == 49


@pytest.mark.parametrize("dotted, shown", _constant_rows())
def test_the_constants_table_shows_each_value(dotted, shown):
    """The value ``docs/ARCHITECTURE.md`` shows is the one the code reads."""
    module, name = dotted.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == \
        ast.literal_eval(shown)


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names something: its longest importable module
    prefix, then attributes from there."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("dotted", DELETED_FROM_SRC)
def test_unreached_code_stays_deleted(dotted):
    assert not _resolves(dotted), f"{dotted} is back in src/"


_FENCED = re.compile(r"```.*?```", re.DOTALL)
_PROSE_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _prose_names():
    for path in [*sorted((REPO_ROOT / "docs").glob("*.md")),
                 REPO_ROOT / "README.md", REPO_ROOT / "CONTRIBUTING.md"]:
        prose = _FENCED.sub("", path.read_text(encoding="utf-8"))
        for dotted in dict.fromkeys(_PROSE_NAME.findall(prose)):
            yield pytest.param(dotted, id=f"{path.name}:{dotted}")


@pytest.mark.parametrize("dotted", _prose_names())
def test_doc_prose_names_resolve(dotted):
    """A backticked ``repro.…`` name in the docs' prose names real code."""
    assert _resolves(dotted), f"the docs name {dotted}, which does not exist"


def test_the_runtime_takes_no_knob_nobody_sets():
    from repro.runtime import EventLoop, MaintenanceTickSource

    assert list(inspect.signature(EventLoop).parameters) == []
    assert list(inspect.signature(MaintenanceTickSource).parameters) == [
        "service", "interval_s", "horizon_s"]


def test_observable_difficulty_has_no_noise_knob():
    from repro.workload.request import Request

    assert list(inspect.signature(
        Request.observable_difficulty).parameters) == ["self"]
