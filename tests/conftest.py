"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig, SelectorConfig
from repro.core.service import ICCacheService
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request, TaskType


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_request(request_id: str = "req-0", difficulty: float = 0.5,
                 topic_latent: np.ndarray | None = None, dim: int = 64,
                 dataset: str = "unit_test",
                 text: str = "what is the capital of france") -> Request:
    """A hand-built request for unit tests."""
    if topic_latent is None:
        vec = np.zeros(dim)
        vec[0] = 1.0
        topic_latent = vec
    return Request(
        request_id=request_id,
        dataset=dataset,
        task=TaskType.QUESTION_ANSWERING,
        text=text,
        latent=np.asarray(topic_latent, dtype=float),
        topic_id=0,
        difficulty=difficulty,
        prompt_tokens=0,
        target_output_tokens=50,
    )


def session_fingerprint(session) -> tuple:
    """What a refused gateway request must leave where it was: the logical
    clock, the admission counters, ``/stats`` (as text: an empty report
    holds NaNs, which are unequal) and the snapshot digest, which covers
    every RNG stream and every cached array."""
    with tempfile.TemporaryDirectory() as tmp:
        path = session.service.save(Path(tmp) / "state.json")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return (session.now, session.accepted, session.late_arrivals,
            len(session.records),
            json.dumps(session.stats_payload(), sort_keys=True), digest)


@pytest.fixture
def simple_request() -> Request:
    return make_request()


@pytest.fixture
def small_dataset() -> SyntheticDataset:
    """A tiny MS MARCO profile for fast integration tests."""
    return SyntheticDataset("ms_marco", scale=0.0005, seed=7)


@pytest.fixture
def service() -> ICCacheService:
    """A compact IC-Cache service (tight selector, no capacity bound)."""
    config = ICCacheConfig(
        seed=3,
        selector=SelectorConfig(pre_k=10, max_examples=3),
        manager=ManagerConfig(sanitize=False),
    )
    return ICCacheService(config)
