"""Supervised fine-tuning baseline (section 6.4, Table 3).

SFT distills the large model's outputs into the small model's weights.  The
paper's Table 3 shows the two signature effects the reproduction models:

* **in-domain**: a genuine capability lift (Gemma-2B +SFT improves on
  Natural Questions), though smaller than IC-Cache's;
* **out-of-domain**: catastrophic-forgetting-style regression (on Alpaca the
  SFT model scores *worse* than the base model, -0.59 vs -0.19), because the
  weights moved toward the fine-tuning distribution.

``SFTModel`` wraps a base :class:`SimulatedLLM` and shifts its effective
quality per request according to the request's dataset.
"""

from __future__ import annotations

import numpy as np

from repro.llm.model import GenerationResult, SimulatedLLM
from repro.workload.request import Request

IN_DOMAIN_LIFT = 0.06        # quality gain on the fine-tuning distribution
OUT_OF_DOMAIN_PENALTY = 0.10 # regression everywhere else


class SFTModel:
    """A small model fine-tuned on large-model outputs for one dataset."""

    def __init__(self, base: SimulatedLLM, tuned_dataset: str) -> None:
        self.base = base
        self.tuned_dataset = tuned_dataset

    @property
    def name(self) -> str:
        return f"{self.base.name}+sft[{self.tuned_dataset}]"

    @property
    def spec(self):
        return self.base.spec

    def _shift(self, request: Request) -> float:
        if request.dataset == self.tuned_dataset:
            return IN_DOMAIN_LIFT
        return -OUT_OF_DOMAIN_PENALTY

    def base_quality(self, request: Request) -> float:
        return float(np.clip(
            self.base.base_quality(request) + self._shift(request), 0.0, 1.0
        ))

    def generate(self, request: Request, examples=None) -> GenerationResult:
        """Generate with the fine-tuned weights (examples still allowed).

        The base model generates — its ICL boost computed against its own,
        unshifted base quality — and the fine-tuning shift is added to the
        sampled quality, so SFT + IC compose the way Fig. 15 reports.
        ``icl_boost`` is the boost that quality used.
        """
        result = self.base.generate(request, examples)
        result.model_name = self.name
        result.quality = float(np.clip(
            result.quality + self._shift(request), 0.0, 1.0))
        return result
