"""A calibrated constant is read where it is used, so a patch reaches it.

The simulator's constants are module globals (``docs/ARCHITECTURE.md``,
"Configuration"), and trying another value means monkeypatching one.  That
works only if no function captured the value when its module was imported,
as a parameter default does: the patch would then change nothing, silently.
The first test patches each constant that was once such a default and
shows the new value reaching an object built afterwards; the second keeps
any constant from becoming a default again.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.baselines import sft
from repro.baselines.sft import SFTModel
from repro.judge import autorater
from repro.judge.autorater import Autorater
from repro.llm import icl, quality
from repro.llm.icl import ExampleView
from repro.llm.zoo import get_model

from tests.conftest import make_request


def _boost() -> float:
    """A relevant teacher well above the model: a positive, uncapped boost."""
    request = make_request(difficulty=0.8)
    teacher = ExampleView(latent=request.latent, quality=0.95, tokens=40)
    return get_model("gemma-2-2b").generate(request, [teacher]).icl_boost


def _quality() -> float:
    return get_model("gemma-2-2b").generate(make_request(difficulty=0.2)).quality


def _base() -> float:
    return get_model("gemma-2-2b").base_quality(make_request(difficulty=0.2))


def _first_listed_scores() -> int:
    rater = Autorater(seed=0)
    return sum(rater.score_once(0.5, 0.5) for _ in range(16))


def _compare() -> float:
    return Autorater(seed=0).compare(0.7, 0.3)


def _tuned(dataset: str) -> float:
    model = SFTModel(get_model("gemma-2-2b"), tuned_dataset="unit_test")
    return model.base_quality(make_request(dataset=dataset, difficulty=0.2))


CASES = [
    (icl, "MAX_BOOST", 0.0, _boost),
    (icl, "SATURATION", 10.0, _boost),
    (icl, "EXCEED_MARGIN", -1.0, _boost),
    (quality, "PENALTY_CEILING", 2.0, _base),
    (quality, "DECODE_NOISE_STD", 0.0, _quality),
    (autorater, "SCORE_GAIN", 0.0, _compare),
    (autorater, "JUDGE_NOISE_STD", 0.0, _compare),
    (autorater, "POSITION_BIAS", 3.0, _first_listed_scores),
    (sft, "IN_DOMAIN_LIFT", 0.2, lambda: _tuned("unit_test")),
    (sft, "OUT_OF_DOMAIN_PENALTY", 0.3, lambda: _tuned("alpaca")),
]


@pytest.mark.parametrize("module, name, value, observe", CASES,
                         ids=[case[1] for case in CASES])
def test_a_patched_constant_reaches_an_object_built_afterwards(
        monkeypatch, module, name, value, observe):
    default = observe()
    monkeypatch.setattr(module, name, value)
    assert observe() != default, f"patching {name} changed nothing"


_UPPER_CASE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
#: ``(file under src/repro, function, constant)`` defaults that stay: the
#: embedder's width is a dimension a test passes, not a calibrated value.
_ALLOWED = {("embedding/embedder.py", "LatentEmbedder.__init__",
             "EMBEDDING_DIM")}


def _constant_defaults():
    """``(file, qualified function, constant)`` for every UPPER_CASE name
    (bare or dotted) a function or lambda in ``src/repro`` has as a default."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {tree: ""}
        for parent in ast.walk(tree):       # parents before their children
            for child in ast.iter_child_nodes(parent):
                named = isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                scope[child] = f"{scope[parent]}.{child.name}".lstrip(".") \
                    if named else scope[parent]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                for default in [*node.args.defaults, *node.args.kw_defaults]:
                    name = getattr(default, "id", None) or \
                        getattr(default, "attr", "")
                    if _UPPER_CASE.match(name):
                        yield (path.relative_to(root).as_posix(),
                               scope[node], name)


def test_no_function_takes_a_module_constant_as_a_default():
    """A default is bound once, at import: a later patch of the constant
    never reaches it."""
    found = set(_constant_defaults())
    assert found - _ALLOWED == set(), sorted(found - _ALLOWED)
    assert found == _ALLOWED        # the scan still sees the allowed one
