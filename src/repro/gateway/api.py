"""Wire format of the serving gateway: HTTP framing, JSON ⇄ domain objects.

:func:`frame_head` is the one HTTP head parser, used by server and client:
one search for the blank line, the same limits on a head that is complete
and on one still arriving.

Requests serialize every field of :class:`repro.workload.request.Request`.
The float64 ``latent`` rides as base64 of its little-endian bytes — bit-exact
by construction, a third smaller and a tenth of the codec time of decimal
text — and the scalars as JSON numbers (Python emits shortest-repr floats
and parses them back to the identical double), so a request replayed through
the loopback gateway is *the same request* the in-process simulator sees,
and the determinism equivalence of ``docs/GATEWAY.md`` can hold to the bit.

Responses carry the :class:`repro.serving.records.ServedRequest`
observables (decision, quality, latency decomposition); errors are
``{"error": ..., "detail": ...}`` objects paired with the HTTP status.
"""

from __future__ import annotations

import re
import sys

from repro.serving.records import ServedRequest
from repro.workload.request import KINDS, REQUEST_RECORD, Request, check_record

#: Bytes a start or header line may run to, and header lines a message may
#: hold: past either the framing is lost, so no peer keeps the parser busy.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100

#: The blank line, from the newline before it (a literal first: a memchr).
_HEAD_END = re.compile(rb"\n\r?\n")


def frame_head(buffer: bytearray,
               ) -> tuple[list[str], dict[str, str], int, int] | None:
    """Frame the HTTP message head at the front of ``buffer``.

    Returns ``(start-line fields, headers, body offset, body length)``, or
    ``None`` while the blank line has not arrived; what has arrived is held
    to the limits either way, so a head that can no longer become valid is
    refused (:class:`PayloadError`, :class:`NotHttp`) before it completes.
    Lines end in ``\\r\\n`` or bare ``\\n``; header names are lower-cased.
    """
    match = _HEAD_END.search(buffer)
    lines = (buffer[:match.start()] if match else buffer
             ).decode("latin-1").split("\n")
    if max(map(len, lines)) > MAX_LINE_BYTES:
        raise PayloadError("request or header line too long: limit is "
                           f"{MAX_LINE_BYTES} bytes")
    # An unfinished head ends in a line still arriving, which is not counted.
    if len(lines) - (2 if match is None else 1) > MAX_HEADERS:
        raise PayloadError(f"too many header lines: limit is {MAX_HEADERS}")
    if match is None and len(lines) == 1:
        return None
    start = lines[0].rstrip("\r").split(" ", 2)
    if len(start) != 3:
        raise NotHttp(f"not an HTTP start line: {lines[0]!r}")
    if match is None:
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise PayloadError("bad content-length: not a byte count")
    return start, headers, match.end(), length


#: (field, kind, what the kind is, wire default) for each request field.
_FIELDS = [(name, kind, KINDS[kind], default)
           for name, kind, _, default in REQUEST_RECORD]


def request_to_payload(request: Request,
                       arrival_time: float | None = None) -> dict:
    """Serialize a request for the wire: every field of
    :data:`~repro.workload.request.REQUEST_RECORD`, by its kind.

    ``arrival_time`` is the *gateway scheduling* stamp — when this arrival
    happens on the gateway's logical clock.  It rides the envelope key
    ``gateway_arrival_s``, deliberately separate from the request's own
    ``arrival_time`` field (dataset metadata that must survive the wire
    unchanged: it is part of the cached example state the equivalence test
    compares bit-for-bit).  Omit it and the gateway schedules the arrival
    at its current watermark.
    """
    payload = {name: kind.to_wire(getattr(request, name))
               for name, _, kind, _ in _FIELDS}
    if arrival_time is not None:
        payload["gateway_arrival_s"] = float(arrival_time)
    return payload


def request_from_payload(payload: dict) -> Request:
    """Rebuild a :class:`Request` from its wire form: each field parsed by
    its kind (an absent one takes its wire default), then
    :func:`~repro.workload.request.check_record`.  Anything refused is a
    :class:`PayloadError` naming the field."""
    if not isinstance(payload, dict):
        raise PayloadError("bad request payload: not a JSON object")
    fields = {}
    for name, kind_name, kind, default in _FIELDS:
        value = payload.get(name, default)
        try:
            if type(value) not in kind.wire:
                raise TypeError("missing" if value is ...
                                else f"got {value!r:.40}")
            fields[name] = kind.from_wire(value)
        except (KeyError, ValueError, TypeError) as exc:
            raise PayloadError(f"bad request payload: '{name}' is not a "
                               f"wire {kind_name} ({exc})") from exc
    try:
        check_record(fields)
        return Request(**fields)
    except ValueError as exc:
        raise PayloadError(f"bad request payload: {exc}") from exc


def arrival_from_payload(payload: dict) -> float | None:
    """The ``gateway_arrival_s`` stamp: absent (or ``null``), or a finite
    number — ``inf`` would park the session's logical clock, ``nan`` poison
    it, so anything else is refused at the edge."""
    stamp = payload.get("gateway_arrival_s")
    if stamp is None or type(stamp) in (int, float) and \
            abs(stamp) <= sys.float_info.max:
        return stamp
    raise PayloadError("'gateway_arrival_s' must be absent or a finite "
                       f"number, not {stamp!r:.40}")


def record_to_payload(record: ServedRequest) -> dict:
    """Serialize one completed request's serving observables."""
    return {
        "request_id": record.request_id,
        "model_name": record.model_name,
        "arrival_s": record.arrival_s,
        "start_s": record.start_s,
        "finish_s": record.finish_s,
        "queue_wait_s": record.queue_wait_s,
        "ttft_s": record.ttft_s,
        "quality": record.quality,
        "prompt_tokens": record.prompt_tokens,
        "output_tokens": record.output_tokens,
        "n_examples": record.n_examples,
        "cost": record.cost,
    }


def error_payload(error: str, detail: str = "") -> dict:
    return {"error": error, "detail": detail}


class PayloadError(ValueError):
    """A wire payload that does not parse into a domain object (HTTP 400)."""


class NotHttp(ValueError):
    """The peer's first line is not three fields: it is not speaking HTTP,
    so there is nobody to answer and the connection is closed silently."""
