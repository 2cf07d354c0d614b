"""Who journals the Example Manager's counters, and when.

``next_id``, ``admitted``, ``rejected_duplicates`` and ``evictions`` reach
the journal as one ``manager_counters`` frame, written by the
``Checkpointer`` as the last frame of a group whose operation moved them
(``docs/PERSISTENCE.md``).  The manager only opens the journal's group; a
bare callable set as ``cache.journal`` sees every other record and never
the counters.
"""

from __future__ import annotations

import warnings

from repro.core.config import ICCacheConfig, ManagerConfig
from repro.core.service import ICCacheService
from repro.persistence.snapshot import counters
from repro.persistence.wal import Checkpointer, WriteAheadLog
from repro.workload.datasets import SyntheticDataset

SEED = 11


def _full_service(directory):
    """A checkpointed service whose cache sits at its byte budget, so an
    admission evicts; and four fresh requests."""
    service = ICCacheService(ICCacheConfig(
        seed=SEED, manager=ManagerConfig(sanitize=False)))
    dataset = SyntheticDataset("ms_marco", scale=0.0005, seed=SEED)
    service.seed_cache(dataset.example_bank_requests()[:40])
    service.manager.config.capacity_bytes = service.cache.total_bytes
    checkpointer = Checkpointer(service, directory)
    checkpointer.checkpoint()
    return service, checkpointer, dataset.online_requests(4)


def _admit(service, request, duplicate: bool = False):
    """``manager.admit`` of a generated response; ``duplicate`` embeds it
    as a cached example, so it is rejected."""
    result = service.models[service.large_name].generate(request)
    embedding = (next(iter(service.cache)).embedding if duplicate else
                 service.embedder.embed(request.text, request.latent))
    return service.manager.admit(request, result, embedding, 1.0)


def _records(checkpointer) -> list[dict]:
    return WriteAheadLog.read(checkpointer.wal_path)


def test_an_admission_that_evicts_ends_in_its_one_counters_frame(tmp_path):
    """``admit`` runs ``enforce_capacity`` in a nested group: the frames are
    ``add``, the evictions, then one ``manager_counters`` with the final
    values, all in one ``write``."""
    service, checkpointer, requests = _full_service(tmp_path)
    writes = []                          # frames per ``write``
    real_flush = checkpointer.wal.flush

    def flush():
        if checkpointer.wal._pending:
            writes.append(len(checkpointer.wal._pending))
        real_flush()

    checkpointer.wal.flush = flush
    assert _admit(service, requests[0]) is not None
    records = _records(checkpointer)
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "add" and kinds[-1] == "manager_counters"
    assert kinds.count("manager_counters") == 1
    assert set(kinds[1:-1]) == {"remove"}
    assert records[-1]["data"] == counters(service.manager)
    assert writes == [len(records)]


def test_a_rejected_duplicate_is_a_lone_counters_frame(tmp_path):
    service, checkpointer, requests = _full_service(tmp_path)
    rejected = service.manager.rejected_duplicates
    assert _admit(service, requests[0], duplicate=True) is None
    records = _records(checkpointer)
    assert [r["kind"] for r in records] == ["manager_counters"]
    assert records[0]["data"]["rejected_duplicates"] == rejected + 1


def test_a_replay_pass_writes_no_counters_frame(tmp_path):
    service, checkpointer, requests = _full_service(tmp_path)
    for request in requests:
        service.serve(request, load=0.2)
    checkpointer.checkpoint()             # bound the serving window
    service.clock.advance(1800.0)
    assert service.manager.run_replay().replayed > 0
    kinds = [r["kind"] for r in _records(checkpointer)]
    assert kinds and set(kinds) == {"replay_rewrite"}


def test_counters_moved_while_detached_are_not_journaled_on_reattach(
        tmp_path):
    """``attach()`` takes the counters as they stand: what moved while the
    journal was off belongs to no frame, and a later group that moves
    nothing writes none."""
    service, checkpointer, requests = _full_service(tmp_path)
    checkpointer.detach()
    assert _admit(service, requests[0]) is not None
    checkpointer.attach()
    with checkpointer.group():
        pass
    assert _records(checkpointer) == []
    assert _admit(service, requests[1], duplicate=True) is None
    records = _records(checkpointer)
    assert [r["kind"] for r in records] == ["manager_counters"]
    assert records[0]["data"] == counters(service.manager)


def test_recovery_restores_all_four_counters(tmp_path):
    service, checkpointer, requests = _full_service(tmp_path)
    before = counters(service.manager)
    assert _admit(service, requests[0]) is not None
    assert _admit(service, requests[1], duplicate=True) is None
    live = counters(service.manager)
    assert all(live[name] > before[name] for name in live), (before, live)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # admissions in the tail: warned
        recovered = Checkpointer.recover(tmp_path)
    assert counters(recovered.manager) == live


def test_a_bare_callable_journal_never_sees_the_counters(tmp_path):
    """Mutations and the manager's own records arrive one by one, and the
    counters not at all: restoring a manager takes a ``Checkpointer``."""
    service, checkpointer, requests = _full_service(tmp_path)
    checkpointer.detach()
    seen = []
    service.cache.journal = lambda kind, payload: seen.append(kind)
    assert _admit(service, requests[0]) is not None
    assert _admit(service, requests[1], duplicate=True) is None
    service.clock.advance(7200.0)
    service.manager.apply_decay()
    assert seen[0] == "add" and "remove" in seen
    assert "decay" in seen and seen[-1] == "clock"
    assert "manager_counters" not in seen
