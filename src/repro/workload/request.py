"""The request record flowing through the system."""

from __future__ import annotations

import base64
import enum
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from repro.utils.rng import make_rng, rng_from_words, seed_words, stable_hash
from repro.utils.tokens import count_tokens


class TaskType(enum.Enum):
    """Task families from Table 1 of the paper."""

    CONVERSATION = "conversation"
    QUESTION_ANSWERING = "question_answering"
    TRANSLATION = "translation"
    CODE_GENERATION = "code_generation"
    MATH_REASONING = "math_reasoning"


@dataclass
class Request:
    """One user request.

    ``latent`` is the ground-truth semantic vector the workload generator
    assigned; real systems never see it directly — they see the (noisy)
    embedding produced by :class:`repro.embedding.LatentEmbedder`.
    ``difficulty`` in [0, 1] is likewise latent; routing components only get
    the noisy :meth:`observable_difficulty`.
    """

    request_id: str
    dataset: str
    task: TaskType
    text: str
    latent: np.ndarray
    topic_id: int
    difficulty: float
    prompt_tokens: int
    target_output_tokens: int
    arrival_time: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError(
                f"difficulty must be in [0, 1], got {self.difficulty} "
                f"for request {self.request_id}"
            )
        if self.prompt_tokens == 0:     # the wire default: count the text
            self.prompt_tokens = max(1, count_tokens(self.text))

    _difficulty_estimate = None   # set on first read, or by prime_difficulty

    def observable_difficulty(self) -> float:
        """A deterministic noisy view of difficulty, as a router feature.

        Real routers estimate complexity from the text (length, phrasing);
        this models that estimate as ground truth plus encoder-style noise
        (std 0.08) that is a pure function of the request id.
        """
        estimate = self._difficulty_estimate
        if estimate is None:
            estimate = self._estimate(make_rng(
                stable_hash("difficulty-estimate", self.request_id)))
        return estimate

    def _estimate(self, rng) -> float:
        est = self.difficulty + rng.normal(0.0, 0.08)
        got = self._difficulty_estimate = float(min(1.0, max(0.0, est)))
        return got

    @property
    def plaintext_bytes(self) -> int:
        """Size of the request text, used in cache-capacity accounting."""
        return len(self.text.encode("utf-8"))


#: The cached record, declared once, as ``(field, kind, snapshot column,
#: wire default)``: the example's own strings (not on the wire), then every
#: :class:`Request` field in order, ``...`` marking one the gateway
#: requires.  :data:`KINDS` says what each kind is in every format.  The
#: gateway's wire form, the journal's ``add`` frame and the snapshot's
#: columns are loops over it, each group (scalars, strings, vectors) in
#: this order, and :func:`check_record` is the one check of what all three
#: can store and give back.
RECORD = (
    ("example_id", "str", "ids", None),
    ("response_text", "str", "response_texts", None),
    ("source_model", "str", "source_models", None),
    ("request_id", "str", "request_ids", ...),
    ("dataset", "str", "datasets", "gateway"),
    ("task", "task", "tasks", ...),
    ("text", "str", "texts", ...),
    ("latent", "vector", "latents", ...),
    ("topic_id", "int", "topic_ids", 0),
    ("difficulty", "float", "difficulties", 0.5),
    ("prompt_tokens", "count", "prompt_tokens", 0),
    ("target_output_tokens", "count", "target_output_tokens", 64),
    ("arrival_time", "float", "arrival_times", 0.0),
    ("metadata", "json", "metadata", {}),
)
#: The :class:`Request` part of :data:`RECORD`; the rest is the example's.
REQUEST_RECORD = tuple(f for f in RECORD if f[0] in Request.__dataclass_fields__)
#: A ``task`` by its value, the text every format stores it as.
TASKS = {task.value: task for task in TaskType}
#: The keys that mark an array record (inline in a metadata blob, and a
#: sidecar reference in the snapshot's JSON): refused in metadata at any
#: depth, so no stored metadata reads back as an array, or fails to read
#: back.
ARRAY_KEYS = ("__ndarray__", "__extarray__")
#: What no UTF-8 encoder takes: JSON's ``\\ud800`` escape decodes to one.
_SURROGATE = re.compile("[\ud800-\udfff]")
_F8 = np.dtype("<f8")


def _text(value) -> bool:
    return isinstance(value, str) and (
        value.isascii() or not _SURROGATE.search(value))


def _json(value) -> bool:
    """JSON :func:`metadata_from_blob` gives back as it was: objects keyed
    by text with no key in :data:`ARRAY_KEYS`, lists, text, numbers,
    ``null``, and numpy arrays and numbers (kept bit-exact)."""
    if isinstance(value, dict):
        return all([_text(key) and key not in ARRAY_KEYS and _json(item)
                    for key, item in value.items()])
    if isinstance(value, list):
        return all(map(_json, value))
    if isinstance(value, np.ndarray):
        return not value.dtype.hasobject
    return value is None or _text(value) or isinstance(
        value, (int, float, np.integer, np.floating))


def encode_array(array: np.ndarray) -> dict:
    """One ndarray as a JSON-safe record, bit-exact: base64 of its raw
    bytes, its ``dtype.str`` (byte order included) and its shape."""
    array = np.ascontiguousarray(array)
    return {"__ndarray__": base64.b64encode(array.tobytes()).decode("ascii"),
            "dtype": array.dtype.str, "shape": list(array.shape)}


def decode_array(record: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(record["__ndarray__"]), np.dtype(
        record["dtype"])).reshape(record["shape"]).copy()


def _plain(value):
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON")


def metadata_blob(metadata: dict) -> str:
    """``request.metadata`` as one string, as the snapshot's metadata column
    and the journal's ``add`` frames carry it: ``""`` for the common empty
    dict, else compact JSON, an array as :func:`encode_array` writes it."""
    return json.dumps(metadata, separators=(",", ":"),
                      default=_plain) if metadata else ""


def metadata_from_blob(blob: str) -> dict:
    """Inverse of :func:`metadata_blob`."""
    return json.loads(blob, object_hook=lambda record: decode_array(record)
                      if "__ndarray__" in record else record) if blob else {}


def _finite(value) -> float:
    # Python's json takes NaN and Infinity, and an int past a double's range.
    if not abs(value) <= sys.float_info.max:
        raise ValueError("not finite")
    return float(value)


def _vector(value: str) -> np.ndarray:
    vector = np.frombuffer(base64.b64decode(value, validate=True), _F8).copy()
    if not vector @ vector < math.inf:  # a NaN, an inf, a norm overflow
        raise ValueError("not finite, or its norm overflows")
    return vector


class Kind(NamedTuple):
    """What one kind of :data:`RECORD` field is, in every format."""

    check: Callable       # whether every format stores a value, as it is
    rule: str             # what ``check`` asks, for its refusal
    wire: tuple           # the JSON types the gateway parses it from
    to_wire: Callable     # the value as the gateway's JSON ...
    from_wire: Callable   # ... and back, raising for what is not one
    #: How the journal and the snapshot store it: ``"s"`` as text, ``"v"``
    #: as a float64 vector, else as this little-endian ``struct`` code.
    code: str
    to_text: Callable | None = None     # a text kind as stored, and
    from_text: Callable | None = None   # back; ``None``: the text itself


_TASK = (attrgetter("value"), TASKS.__getitem__)
#: kind -> what it is: ``str`` UTF-8 text, ``task`` a :class:`TaskType`
#: value, ``int`` int64, ``count`` a non-negative int64, ``float`` float64,
#: ``vector`` 1-D float64 (on the wire base64 of its little-endian bytes),
#: ``json`` a JSON object.
KINDS = {
    "str": Kind(_text, "must be UTF-8 text, with no surrogate code point",
                (str,), str, str, "s"),
    "task": Kind(lambda v: isinstance(v, TaskType), "must be a TaskType",
                 (str,), *_TASK, "s", *_TASK),
    "int": Kind(lambda v: isinstance(v, (int, np.integer))
                and -2 ** 63 <= v < 2 ** 63, "must fit in int64",
                (int,), int, int, "q"),
    "count": Kind(lambda v: isinstance(v, (int, np.integer))
                  and 0 <= v < 2 ** 63, "must be a non-negative int64",
                  (int,), int, int, "q"),
    "float": Kind(lambda v: isinstance(
        v, (int, float, np.integer, np.floating)), "must be a number",
        (int, float), float, _finite, "d"),
    "vector": Kind(lambda v: np.ndim(v) == 1 and np.asarray(v).dtype.kind
                   in "iuf", "must be a 1-D float vector", (str,),
                   lambda v: base64.b64encode(np.asarray(
                       v, dtype=_F8).tobytes()).decode(), _vector, "v"),
    "json": Kind(lambda v: isinstance(v, dict) and (not v or _json(v)),
                 "must be a JSON object keyed and written in UTF-8 text, "
                 f"with no key in {ARRAY_KEYS}", (dict,), dict, dict, "s",
                 metadata_blob, metadata_from_blob),
}


def record_fields(fields, codes: str) -> tuple:
    """The entries of ``fields`` (of :data:`RECORD`) whose kind's ``code``
    is one of the letters of ``codes``, in order."""
    return tuple(f for f in fields if KINDS[f[1]].code in codes)


def record_getter(fields) -> Callable:
    """One call reading ``fields`` (entries of :data:`RECORD`) off a cached
    example — a request field as ``example.request.<field>`` — as a tuple."""
    getter = attrgetter(*(
        name if name not in Request.__dataclass_fields__ else "request." + name
        for name, *_ in fields))
    return getter if len(fields) > 1 else lambda example: (getter(example),)


_KIND_OF = {name: KINDS[kind] for name, kind, *_ in RECORD}
_CHECKS = [(name, kind.check) for name, kind in _KIND_OF.items()]
_values = record_getter(RECORD)
#: Each field's usual type: a record of exactly these passes
#: :func:`check_record` when :func:`_usual` holds.
_USUAL_TYPES = tuple({"str": str, "task": TaskType, "int": int, "count": int,
                      "float": float, "vector": np.ndarray, "json": dict}[kind]
                     for _, kind, *_ in RECORD)
#: Getters of the fields of some kinds (one field: the value itself).
_texts_of, _ints_of, _vector_of, _json_of = (itemgetter(*[
    i for i, (_, kind, *_) in enumerate(RECORD) if kind in kinds])
    for kinds in (("str",), ("int", "count"), ("vector",), ("json",)))


def _usual(values: tuple) -> bool:
    """ASCII texts, ints (either kind) in [0, 2**63), a 1-D numeric vector
    and empty JSON: the common record's checks, at once."""
    ints, vector = _ints_of(values), _vector_of(values)
    return ("".join(_texts_of(values)).isascii() and 0 <= min(ints)
            and max(ints) < 2 ** 63 and vector.ndim == 1
            and vector.dtype.kind in "iuf" and not _json_of(values))


def check_record(record) -> None:
    """Refuse, with a ``ValueError`` naming the field, a value the gateway,
    the journal and the snapshot could not all store and give back.
    ``record`` is a cached example (every field of :data:`RECORD`), or a
    dict of some of its fields by name.  The common record passes in a
    few calls; any other is checked field by field."""
    if isinstance(record, dict):
        checks = [(name, _KIND_OF[name].check) for name in record]
        values = record.values()
    else:
        checks, values = _CHECKS, _values(record)
        if tuple(map(type, values)) == _USUAL_TYPES and _usual(values):
            return
    for (name, check), value in zip(checks, values):
        if not check(value):
            raise ValueError(f"'{name}' {_KIND_OF[name].rule}: {value!r:.80}")


def prime_difficulty(requests: list[Request]) -> None:
    """Fill the difficulty estimates of ``requests`` in one seeding pass."""
    todo = [r for r in requests if r._difficulty_estimate is None]
    for request, row in zip(todo, seed_words(
            stable_hash("difficulty-estimate", r.request_id) for r in todo)):
        request._estimate(rng_from_words(row))
