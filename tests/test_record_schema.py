"""The record declaration: what the gateway accepts, the cache stores and
both recoveries give back, field for field.

``repro.workload.request.RECORD`` declares the cached record once, and the
gateway's parse, ``check_record``, the journal's ``add`` frame and the
snapshot's columns all derive from it.  The property draws a wire payload
whose every field sits at an edge of its kind's range, and at most one
field from just past those edges (another JSON type, a value out of range,
a key the snapshot reads as an array).  A payload with no such field is
accepted; a refused one names its field; and a request the gateway accepts
is one ``cache.add`` takes under a ``Checkpointer``, which WAL recovery and
checkpoint restore both give back field for field.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ICCacheConfig
from repro.core.example import Example
from repro.core.service import ICCacheService
from repro.gateway import PayloadError, request_from_payload
from repro.persistence import Checkpointer
from repro.workload.request import (
    ARRAY_KEYS,
    KINDS,
    RECORD,
    REQUEST_RECORD,
    TASKS,
    record_getter,
)
from tests.strategies import STANDARD

_ABSENT = object()
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10) \
    | st.sampled_from(["", "\x00", "two\nlines", "naïve — 東京 🚀"])
_key = _text.filter(lambda key: key not in ARRAY_KEYS)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_key, inner, max_size=3), max_leaves=8)


def _vector(*elements) -> st.SearchStrategy:
    return st.lists(st.one_of(*elements), max_size=4).map(
        lambda v: base64.b64encode(np.array(v, "<f8").tobytes()).decode())


#: kind -> (values at the edges of its range, values just past them).
EDGES = {
    "str": (_text, st.sampled_from([None, 1, ["a"], "lone \ud800", "\udfff"])),
    "task": (st.sampled_from(sorted(TASKS)),
             st.sampled_from(["poetry", None, 3, ["conversation"]])),
    "int": (st.sampled_from([-2 ** 63, -1, 0, 1, 2 ** 63 - 1])
            | st.integers(-2 ** 63, 2 ** 63 - 1),
            st.sampled_from([2 ** 63, -2 ** 63 - 1, 3.0, 3.9, "12", True,
                             None])),
    "count": (st.sampled_from([0, 1, 2 ** 63 - 1])
              | st.integers(0, 2 ** 63 - 1),
              st.sampled_from([-1, -5, -2 ** 63, 2 ** 63, 3.0, "12", True,
                               None])),
    "float": (st.sampled_from([0, 1, 0.0, -0.0, 5e-324, 0.5, 1.0])
              | st.floats(0.0, 1.0),
              st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400,
                               "0.5", True, None])),
    "vector": (_vector(st.floats(-1e150, 1e150), st.just(-0.0)),
               _vector(st.sampled_from([math.nan, math.inf, 1e200]))
               .filter(len) | st.sampled_from([[1.0], "AAAA", None])),
    "json": (st.dictionaries(_key, _json, max_size=3),
             st.sampled_from(ARRAY_KEYS).map(
                 lambda key: {"outer": [{key: {"offset": 0}}]})
             | st.sampled_from([[], "x", None, {"k": "\ud800"}])),
}


def test_every_kind_has_its_edges():
    """The property below draws each field from its kind's edges: a kind
    without them would go untested, and edges of no kind test nothing."""
    assert set(EDGES) == set(KINDS)


def _assert_same(ours: tuple, theirs: tuple) -> None:
    """Every field of ``RECORD``: types equal, floats by their bits,
    vectors by dtype, shape and bytes, metadata by its JSON text."""
    for (name, kind, *_), a, b in zip(RECORD, ours, theirs):
        assert type(a) is type(b), (name, a, b)
        if kind == "vector":
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), name
        elif kind == "float":
            assert struct.pack("<d", a) == struct.pack("<d", b), (name, a, b)
        elif kind == "json":
            assert json.dumps(a) == json.dumps(b), (name, a, b)
        else:
            assert a == b, (name, a, b)


_values = record_getter(RECORD)


@settings(**STANDARD)
@given(data=st.data())
def test_a_record_the_gateway_accepts_is_stored_and_given_back(data):
    names = [name for name, *_ in REQUEST_RECORD]
    hostile = data.draw(st.none() | st.sampled_from(names), label="past edge")
    payload = {}
    for name, kind, _, default in REQUEST_RECORD:
        edges = EDGES[kind][name == hostile]
        if default is not ... and name != hostile:
            edges = st.just(_ABSENT) | edges
        value = data.draw(edges, label=name)
        if value is not _ABSENT:
            payload[name] = value
    payload = json.loads(json.dumps(payload))      # through the wire's codec
    try:
        request = request_from_payload(payload)
    except PayloadError as refused:
        assert hostile is not None and f"'{hostile}'" in str(refused)
        return
    assert hostile is None

    example = Example(
        example_id=data.draw(_text, label="example_id"), request=request,
        response_text=data.draw(_text, label="response_text"),
        embedding=np.eye(64)[0], quality=0.5,
        source_model=data.draw(_text, label="source_model"), source_cost=1.0)
    with tempfile.TemporaryDirectory() as directory:
        service = ICCacheService(ICCacheConfig(seed=0))
        checkpointer = Checkpointer(service, directory)
        checkpointer.checkpoint()
        service.cache.add(example)
        recovered = Checkpointer.recover(directory)           # the WAL tail
        checkpointer.checkpoint()
        restored = Checkpointer.recover(directory)            # the snapshot
        checkpointer.detach()
    for service in (recovered, restored):
        _assert_same(_values(service.cache.get(example.example_id)),
                     _values(example))
