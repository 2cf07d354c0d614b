"""Crash-point enumeration for ``Checkpointer.checkpoint()``.

A checkpoint is a short sequence of filesystem steps — sidecar temp write,
``os.replace``, manifest temp write, ``os.replace``, stale-sidecar unlink,
journal truncate (``docs/PERSISTENCE.md`` lists them).  This suite kills
the process at each step in turn — for the writes, also after half the
bytes are down — both in a periodic checkpoint and in one a journaled
``add`` triggered by size, and asserts what the write ordering promises:
a checkpoint changes no logical state, so whichever side of the crash the
directory landed on, ``Checkpointer.recover`` rebuilds exactly the live
cache state; a new ``Checkpointer`` over the directory keeps journaling
recoverably; and the next successful checkpoint leaves exactly manifest +
one sidecar + journal, whatever temp file or stale sidecar the crash
stranded.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.example import Example
from repro.core.service import ICCacheService
from repro.persistence.wal import Checkpointer
from repro.workload.datasets import SyntheticDataset
from repro.workload.request import Request
from tests.test_persistence_wal_frames import _state

SEED = 11
BANK = 40


class SimulatedCrash(Exception):
    """The process died here."""


class FaultyFilesystem:
    """Names every filesystem step taken while installed, and kills the
    process at the ``crash_at``-th (``half``: after half a write's bytes)."""

    def __init__(self, monkeypatch, crash_at: int | None = None,
                 half: bool = False) -> None:
        self.steps: list[str] = []
        self.crash_at = crash_at
        self.half = half
        self._real_write = Path.write_bytes
        for owner, name in ((Path, "write_bytes"), (Path, "write_text"),
                            (Path, "unlink"), (os, "replace")):
            monkeypatch.setattr(owner, name,
                                self._wrap(name, getattr(owner, name)))

    def _wrap(self, name, real):
        def step(*args, **kwargs):
            label = f"{name} {Path(args[0]).name.split('.')[-1]}"
            dying = len(self.steps) == self.crash_at
            self.steps.append(label)
            if dying:
                if self.half:
                    assert name.startswith("write_"), label
                    data = args[1].encode() if name == "write_text" \
                        else args[1]
                    self._real_write(args[0], data[:len(data) // 2])
                raise SimulatedCrash(label)
            return real(*args, **kwargs)
        return step


def _build() -> ICCacheService:
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    return service


def _example(service, name: str) -> Example:
    rng = np.random.default_rng(len(name))
    task = service.cache.examples()[0].request.task
    request = Request(
        request_id=f"req-{name}", dataset="ms_marco", task=task,
        text=f"ingested request {name}",
        latent=rng.normal(size=service.config.embedding_dim),
        topic_id=0, difficulty=0.5, prompt_tokens=12, target_output_tokens=40)
    return Example(
        example_id=name, request=request, response_text=f"response {name}",
        embedding=service.embedder.embed(request.text, request.latent),
        quality=0.8, source_model="manual", source_cost=1.0)


def _lifecycle(service, tag: str) -> None:
    """Cache-lifecycle mutations only (the window recovery is exact on)."""
    for i in range(3):
        service.cache.add(_example(service, f"{tag}-{i}"))
    service.cache.remove(f"{tag}-0")
    service.clock.advance(2 * 3600.0)
    service.run_maintenance(replay=True)


def _ready(directory) -> tuple[ICCacheService, Checkpointer]:
    """A checkpointed service with a journaled lifecycle window behind it."""
    service = _build()
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    _lifecycle(service, "first")
    return service, checkpointer


def _periodic(service, checkpointer) -> None:
    checkpointer.checkpoint()


def _size_triggered(service, checkpointer) -> None:
    """The checkpoint fires inside a journaled ``add`` whose frame pushed
    the journal over ``compact_after_bytes``."""
    checkpointer.compact_after_bytes = checkpointer.wal.size_bytes
    service.cache.add(_example(service, "trigger"))


TRIGGERS = {"periodic": _periodic, "size-triggered": _size_triggered}

#: The steps of one checkpoint, in order, as ``FaultyFilesystem`` labels them
#: (the stale sidecar exists because the window changed the pool, so the new
#: image hashes differently; the last write truncates ``wal.bin``).
STEPS = ["write_bytes tmp", "replace tmp", "write_text tmp", "replace tmp",
         "unlink bin", "write_bytes bin"]
CRASH_POINTS = [(step, False) for step in range(len(STEPS))] + [
    (step, True) for step, name in enumerate(STEPS)
    if name.startswith("write_")]


@pytest.mark.parametrize("trigger", TRIGGERS)
def test_the_enumerated_steps_are_the_steps_a_checkpoint_takes(
        tmp_path, monkeypatch, trigger):
    service, checkpointer = _ready(tmp_path)
    with monkeypatch.context() as patch:
        filesystem = FaultyFilesystem(patch)
        TRIGGERS[trigger](service, checkpointer)
    assert filesystem.steps == STEPS
    assert checkpointer.checkpoints == 2
    checkpointer.detach()


@pytest.mark.parametrize("step, half", CRASH_POINTS, ids=[
    f"{step}-{STEPS[step].replace(' ', '-')}{'-half' if half else ''}"
    for step, half in CRASH_POINTS])
@pytest.mark.parametrize("trigger", TRIGGERS)
def test_crash_at_every_step_recovers_the_live_state(
        tmp_path, monkeypatch, trigger, step, half):
    service, checkpointer = _ready(tmp_path)
    with monkeypatch.context() as patch:
        FaultyFilesystem(patch, step, half)
        # The crash surfaces from checkpoint() itself, or from the
        # cache.add whose journal record triggered it.
        with pytest.raises(SimulatedCrash, match=STEPS[step]):
            TRIGGERS[trigger](service, checkpointer)
    if trigger == "size-triggered":
        assert "trigger" in service.cache     # the add itself completed
    checkpointer.detach()                     # the process is gone

    # 1. Recovery lands on exactly the live state (pre == post).
    recovered = Checkpointer.recover(tmp_path)
    assert _state(recovered) == _state(service)

    # 2. A new Checkpointer over the directory journals and recovers.
    resumed = Checkpointer(recovered, tmp_path)
    _lifecycle(recovered, "second")
    _lifecycle(service, "second")             # the uninterrupted twin
    assert _state(recovered) == _state(service)
    resumed.wal.close()
    assert _state(Checkpointer.recover(tmp_path)) == _state(recovered)

    # 3. The next successful checkpoint leaves a clean directory.
    resumed.checkpoint()
    names = sorted(path.name for path in tmp_path.iterdir())
    assert len(names) == 3, names
    assert names[0] == Checkpointer.SNAPSHOT_NAME
    assert names[1].startswith("snapshot.json.") and names[1].endswith(".bin")
    assert names[2] == Checkpointer.WAL_NAME
    assert resumed.wal.size_bytes == 0
    assert _state(Checkpointer.recover(tmp_path)) == _state(recovered)
    resumed.detach()
