"""A state structure as JSON with its arrays inline: a canonical form tests
compare states by, and its inverse.

A snapshot writes its arrays to a sidecar file; a test that wants one
string per state (a digest to compare, a line of the reference journal)
writes each array inline instead, as
:func:`repro.workload.request.encode_array` does: base64 of its bytes, its
``dtype.str`` and its shape, so every array compares bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from repro.workload.request import decode_array, encode_array


def _plain(value):
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON")


def dumps(state, **kwargs) -> str:
    """``json.dumps`` of ``state``, arrays inline, numpy scalars as Python
    numbers."""
    return json.dumps(state, default=_plain, **kwargs)


def loads(text: str):
    """Inverse of :func:`dumps`: each inline array is a fresh ndarray."""
    return json.loads(text, object_hook=lambda record: decode_array(record)
                      if "__ndarray__" in record else record)
