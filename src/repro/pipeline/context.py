"""``ServeContext``: the one object threaded through every pipeline stage.

Each request flowing through :class:`repro.pipeline.core.ICCachePipeline`
owns exactly one context.  Stages fill it in order — embedding, retrieved
examples, routing choice, prompt views, generation result, admission — and
middleware hooks observe (or mutate) it between stages.  The section-5
fault-tolerance state (``bypassed``, ``failed_stage``, ``error``) also
lives here, so a failure in any stage is visible to every later one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.example import Example
from repro.core.router import RoutingChoice
from repro.core.selector import ScoredExample
from repro.llm.icl import ExampleView
from repro.llm.model import GenerationResult
from repro.workload.request import Request


@dataclass
class ServeContext:
    """Per-request state shared by all pipeline stages and middleware.

    Lifecycle (filled top to bottom):

    * ``request`` / ``load`` — set at batch entry;
    * ``embedding`` — after the embed stage;
    * ``examples`` — after the retrieval stage (``RetrievalPolicy``);
    * ``choice`` / ``views`` — after the routing stage (``RoutingPolicy``;
      views are non-empty only when the request was offloaded);
    * ``result`` — after generation (inline) or cluster completion;
    * ``admitted_example`` — after admission (``AdmissionPolicy``).
    """

    request: Request
    load: float | None = None
    embedding: np.ndarray | None = None
    examples: list[ScoredExample] = field(default_factory=list)
    choice: RoutingChoice | None = None
    views: list[ExampleView] = field(default_factory=list)
    result: GenerationResult | None = None
    admitted_example: Example | None = None
    bypassed: bool = False
    failed_stage: str | None = None
    error: Exception | None = None

    @property
    def offloaded(self) -> bool:
        """True when routing diverted the request off the reference model."""
        return bool(self.choice is not None
                    and self.choice.metadata.get("offloaded", False))
