"""Simulated LLM substrate.

The paper's evaluation observes models through exactly three lenses:

1. *response quality* as scored by an LLM autorater (win rates, avg scores),
2. *latency* (TTFT = prefill over the prompt, TBT per decoded token), and
3. *resource footprint* (GPUs per replica, cost per token).

:class:`SimulatedLLM` models those three observables and nothing else.  Its
capability/latency constants are calibrated against the paper's own
measurements (Fig. 1, Fig. 4b, Fig. 18); :mod:`repro.llm.quality` documents
the quality model and :mod:`repro.llm.icl` the in-context-learning boost;
both are module functions over calibrated module constants.
"""

from repro.llm.model import GenerationResult, ModelSpec, SimulatedLLM
from repro.llm.icl import example_utility
from repro.llm.zoo import MODEL_SPECS, get_model, get_model_pair, MODEL_PAIRS

__all__ = [
    "GenerationResult",
    "ModelSpec",
    "SimulatedLLM",
    "example_utility",
    "MODEL_SPECS",
    "MODEL_PAIRS",
    "get_model",
    "get_model_pair",
]
