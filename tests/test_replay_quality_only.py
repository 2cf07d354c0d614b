"""Replay compares sample qualities and renders only the winner's text.

:meth:`ReplayEngine.replay_one` no longer builds a ``GenerationResult`` per
sample, and leaves an example that no sample beats untouched.  Neither may
change a single byte of state: one maintenance tick on twin journaled
services, one of them running the ``generate``-based body kept in
``tests/replay_reference.py``, must leave equal table columns, texts,
teacher decode positions and ``wal.bin``.
"""

from __future__ import annotations

import types

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.llm.zoo import get_model
from repro.persistence.wal import Checkpointer
from repro.workload.datasets import SyntheticDataset
from tests import replay_reference
from tests.conftest import make_request

SEED = 11
BANK = 150


def _ticked(directory, reference: bool):
    """A full, journaled cache served 200 fresh requests, then one
    maintenance tick with replay; returns what the tick left behind."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:BANK])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    engine = service.manager.replay_engine
    if reference:
        engine.replay_one = types.MethodType(replay_reference.replay_one,
                                             engine)
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    for request in dataset.online_requests(200):
        service.serve(request, load=0.2)
    service.clock.advance(1800.0)
    summary = service.run_maintenance(replay=True)
    checkpointer.detach()
    table = service.cache.table
    return {
        "summary": summary,
        "columns": {name: table.col(name).tobytes() for name in table._cols},
        "texts": [(ex.example_id, ex.request.text, ex.response_text)
                  for ex in service.cache],
        "decode_counts": dict(engine.teacher._decode_counts),
        "wal": checkpointer.wal_path.read_bytes(),
    }


def test_a_replay_tick_matches_the_generate_based_reference(tmp_path):
    live = _ticked(tmp_path / "live", reference=False)
    reference = _ticked(tmp_path / "reference", reference=True)
    summary = live["summary"]
    # Both branches ran: samples that won and examples none beat.
    assert 0 < summary["improved"] < summary["replayed"]
    assert live["summary"] == reference["summary"]
    assert live["texts"] == reference["texts"]
    assert live["decode_counts"] == reference["decode_counts"]
    assert live["columns"].keys() == reference["columns"].keys()
    for name, data in live["columns"].items():
        assert data == reference["columns"][name], name
    assert live["wal"] == reference["wal"]


def test_sample_quality_is_the_quality_generate_would_draw():
    """One shared draw: interleaved, ``sample_quality`` and ``generate`` on
    one model see the qualities a ``generate``-only twin sees, advance the
    same decode positions, and share one response formatter."""
    sampled, generated = get_model("gemma-2-27b"), get_model("gemma-2-27b")
    requests = [make_request(request_id=f"draw-{i}") for i in range(4)]
    for step in range(12):
        request = requests[step % 4]
        expected = generated.generate(request)
        if step % 3:
            assert sampled.sample_quality(request) == expected.quality
        else:
            assert sampled.generate(request).quality == expected.quality
        assert sampled.response_text(request, expected.quality) \
            == expected.text
    assert sampled._decode_counts == generated._decode_counts == {
        request.request_id: 3 for request in requests}
