"""The request front and the response shape shared by batch and serve.

``python -m repro batch`` and the serving daemon answer the same
requests with the same response lines; this module is the one place
that decides how.  It owns three things:

* :func:`admit` -- turn an entry (a raw JSON object, a
  :class:`JobRequest`, or a :class:`JobError` placeholder for an input
  line that already failed) into ``(request, content hash)``, or raise
  the structured :class:`JobError` the client gets back.  The error
  kinds: :class:`RequestError` is ``bad_request``, a formula or summand
  that does not parse is ``parse_error``, and anything else the
  canonical hash raises is ``bad_request "Type: msg"``.
* :func:`respond` -- the response dict for an ok payload, a job
  outcome or an error: ``id``, ``ok``, the payload's
  :func:`response_core` or ``error``, then ``cached``, ``wall_ms`` and
  ``attempts``.  The daemon adds only its ``tier`` annotation.
* relabelling of answer points: the content hash is alpha-invariant,
  so a stored, deduplicated or coalesced answer may have been computed
  under another spelling of the same request.  :func:`respond` writes
  each ``points[i].at`` from the requesting job's own ``at[i]``, so a
  response always echoes the variable names its client sent.

Deduplication stays with the callers: the batch runner keeps a
synchronous in-batch index, the daemon an asyncio in-flight table.
"""

from typing import Mapping, Optional, Tuple

from repro.presburger.parser import ParseError
from repro.qpoly.parse import PolynomialParseError
from repro.service.executor import BAD_REQUEST, PARSE_ERROR, JobError
from repro.service.request import JobRequest, RequestError

#: Response keys that may differ between a computed run and a cached
#: re-run of the same request; strip them to compare runs byte-for-byte.
#: ``stats`` joined the list with the persistent answer memo: a warm
#: run that answers a clause from the answer store does genuinely less
#: engine work, so its per-job counters differ while the result is
#: byte-identical.  ``tier`` is the serve daemon's annotation of which
#: serving tier answered (warm/coalesced/cold/...); the batch CLI does
#: not emit it, so it must be volatile for daemon-vs-batch
#: byte-identity checks to hold.
VOLATILE_RESPONSE_KEYS = (
    "cached",
    "wall_ms",
    "attempts",
    "stats",
    "tier",
)

#: Payload keys not echoed into response lines (bulky; clients that
#: want the full serialized result can read the cache).
_PAYLOAD_ONLY_KEYS = ("result_json",)


def admit(entry) -> Tuple[JobRequest, str]:
    """``(request, content hash)`` for an entry; raises :class:`JobError`.

    The raised error carries the client's id when one is known.
    """
    if isinstance(entry, JobError):
        raise entry
    if not isinstance(entry, JobRequest):
        if not isinstance(entry, Mapping):
            raise JobError(BAD_REQUEST, "request must be a JSON object")
        try:
            entry = JobRequest.from_json(entry)
        except RequestError as exc:
            raise JobError(BAD_REQUEST, str(exc), id=entry.get("id"))
    try:
        return entry, entry.content_hash()
    except (ParseError, PolynomialParseError) as exc:
        raise JobError(PARSE_ERROR, str(exc), id=entry.id)
    except Exception as exc:
        raise JobError(
            BAD_REQUEST, "%s: %s" % (type(exc).__name__, exc), id=entry.id
        )


def response_core(payload: dict) -> dict:
    """An ok payload with bulky payload-only keys stripped."""
    return {
        k: v for k, v in payload.items() if k not in _PAYLOAD_ONLY_KEYS
    }


def respond(
    rid,
    outcome: dict,
    req: Optional[JobRequest] = None,
    cached: bool = False,
) -> dict:
    """The response for one settled job.

    ``outcome`` has the executor's shape: ``ok``, then ``payload`` or
    ``error``, plus ``wall_ms`` and ``attempts`` (both default to 0 for
    answers that did no job).  ``req`` is the request being answered;
    its ``at`` list relabels the payload's points.
    """
    response = {"id": rid, "ok": outcome["ok"]}
    if outcome["ok"]:
        response.update(response_core(outcome["payload"]))
        points = response.get("points")
        if req is not None and points and len(points) == len(req.at):
            response["points"] = [
                dict(point, at=dict(env)) for point, env in zip(points, req.at)
            ]
    else:
        response["error"] = outcome["error"]
    response["cached"] = cached
    response["wall_ms"] = outcome.get("wall_ms", 0.0)
    response["attempts"] = outcome.get("attempts", 0)
    return response


def error_response(rid, error: JobError) -> dict:
    """The response for a request that failed before any job ran."""
    return respond(rid, {"ok": False, "error": error.to_json()})


__all__ = [
    "VOLATILE_RESPONSE_KEYS",
    "admit",
    "error_response",
    "respond",
    "response_core",
]
