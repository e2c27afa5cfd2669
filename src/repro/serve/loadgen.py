"""Load generator for the serve daemon (``python -m repro loadgen``).

Replays a request corpus at N concurrent clients against either an
in-process daemon (the default: spin one up, drive
:meth:`~repro.serve.daemon.CountingDaemon.handle` directly, drain it)
or a running daemon over HTTP (``--url``), and reports throughput,
per-tier latency (p50/p99 over exact recorded samples, not histogram
buckets), and the daemon's own coalesce/hit-rate counters.

The corpus can be:

* the built-in base set (small count/sum/evaluate jobs spanning the
  paper's loop-nest shapes, plus member/count_below jobs for the
  resident-automaton tier);
* a directory of testkit regression-corpus entries
  (``--corpus tests/corpus``) -- each fuzz case becomes a count job,
  plus a sum job when it carries a summand;
* a JSONL file of raw service requests (``--corpus file.jsonl``).

``--rename-mix p`` alpha-renames the counted variables of a fraction
``p`` of the replayed requests.  Renamed variants share the original's
canonical content hash, so they exercise exactly the machinery the
daemon exists for: warm hits across names, and coalescing when
variants are in flight together.
"""

import asyncio
import json
import os
import random
import sys
import time
from collections import deque
from typing import List, Optional, Sequence, Tuple
from urllib.parse import urlparse

from repro.serve.daemon import CountingDaemon, ServeConfig
from repro.serve.metrics import TIERS

#: Small, fast jobs covering every kind; ids are stable so summaries
#: and byte-identity checks can correlate across passes and runners.
DEFAULT_BASE_REQUESTS = (
    {
        "id": "tri",
        "kind": "count",
        "formula": "1 <= i and i < j and j <= n",
        "over": ["i", "j"],
    },
    {
        "id": "box-stride",
        "kind": "count",
        "formula": "1 <= i <= n and 1 <= j <= m and 2 | (i + j)",
        "over": ["i", "j"],
    },
    {
        "id": "diag",
        "kind": "count",
        "formula": "1 <= i <= n and 1 <= j <= n and i + j <= n",
        "over": ["i", "j"],
    },
    {
        "id": "mod3",
        "kind": "count",
        "formula": "0 <= i <= n and 3 | (i + n)",
        "over": ["i"],
    },
    {
        "id": "sum-sq",
        "kind": "sum",
        "formula": "1 <= i <= n",
        "over": ["i"],
        "poly": "i*i",
    },
    {
        "id": "sum-prod",
        "kind": "sum",
        "formula": "1 <= i <= n and 1 <= j <= i",
        "over": ["i", "j"],
        "poly": "i*j",
    },
    {
        "id": "eval-tri",
        "kind": "evaluate",
        "formula": "1 <= i and i < j and j <= n",
        "over": ["i", "j"],
        "at": [{"n": 10}, {"n": 25}, {"n": 100}],
    },
    {
        "id": "simp",
        "kind": "simplify",
        "formula": "x >= 1 and x >= 0 and (x <= 5 or x <= 9)",
    },
    {
        "id": "mem-diag",
        "kind": "member",
        "formula": "0 <= i <= 20 and 0 <= j <= 20 and i + j <= 20 and 2 | (i + j)",
        "over": ["i", "j"],
        "at": [{"i": 3, "j": 5}, {"i": 7, "j": 9}, {"i": 21, "j": 0}],
    },
    {
        "id": "below-stride",
        "kind": "count_below",
        "formula": "3 | (i + 2*j) and i <= 2*j",
        "over": ["i", "j"],
        "bound": 16,
    },
)


def alpha_variant(obj: dict, rng: random.Random) -> dict:
    """An alpha-renamed copy: same canonical hash, different spelling.

    Only the counted variables (and their bound occurrences) are
    renamed -- free symbolic constants appear in the answer, so
    renaming them would change the response.
    """
    over = list(obj.get("over") or [])
    if not over:
        return dict(obj)
    from repro.presburger.parser import parse
    from repro.qpoly.parse import parse_polynomial
    from repro.testkit.generate import formula_to_text, rename_formula

    mapping = {v: "%s_v%d" % (v, rng.randrange(1000000)) for v in over}
    out = dict(obj)
    out["formula"] = formula_to_text(rename_formula(parse(obj["formula"]), mapping))
    out["over"] = [mapping[v] for v in over]
    if out.get("poly"):
        out["poly"] = str(parse_polynomial(out["poly"]).rename(mapping))
    if out.get("at"):
        # Member points key on counted variables; evaluate points key
        # on free symbols, which mapping does not contain -- so this
        # renames exactly the keys that were renamed in the formula.
        out["at"] = [
            {mapping.get(k, k): v for k, v in env.items()}
            for env in out["at"]
        ]
    return out


def base_requests(corpus: Optional[str] = None) -> List[dict]:
    """The base request pool: built-in, corpus directory, or JSONL file."""
    if corpus is None:
        return [dict(obj) for obj in DEFAULT_BASE_REQUESTS]
    if os.path.isdir(corpus):
        return requests_from_corpus_dir(corpus)
    out = []
    with open(corpus, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            obj.setdefault("id", "line%d" % line_no)
            out.append(obj)
    if not out:
        raise ValueError("no requests in %s" % corpus)
    return out


def requests_from_corpus_dir(directory: str) -> List[dict]:
    """Testkit regression-corpus entries as count (and sum) requests."""
    from repro.testkit.corpus import load_corpus
    from repro.testkit.generate import formula_to_text

    out = []
    for path, case, _check in load_corpus(directory):
        name = os.path.splitext(os.path.basename(path))[0]
        formula = formula_to_text(case.formula)
        out.append(
            {
                "id": "%s-count" % name,
                "kind": "count",
                "formula": formula,
                "over": list(case.over),
            }
        )
        if case.poly_text:
            out.append(
                {
                    "id": "%s-sum" % name,
                    "kind": "sum",
                    "formula": formula,
                    "over": list(case.over),
                    "poly": case.poly_text,
                }
            )
    if not out:
        raise ValueError("no corpus entries in %s" % directory)
    return out


def build_requests(
    base: Sequence[dict],
    total: int,
    rename_mix: float = 0.0,
    seed: int = 0,
) -> List[dict]:
    """``total`` requests cycling the base pool, a fraction alpha-renamed."""
    rng = random.Random(seed)
    out = []
    for k in range(total):
        obj = dict(base[k % len(base)])
        obj["id"] = "%s#%d" % (obj.get("id", k % len(base)), k)
        if rename_mix > 0 and rng.random() < rename_mix:
            obj = alpha_variant(obj, rng)
        out.append(obj)
    return out


# -- drivers -------------------------------------------------------------


async def _drive(submit, requests, clients, keep_responses=False):
    """Run ``requests`` through ``submit`` at ``clients`` concurrency."""
    queue = deque(requests)
    records = []

    async def worker():
        while True:
            try:
                obj = queue.popleft()
            except IndexError:
                return
            t0 = time.perf_counter()
            response = await submit(obj)
            ms = (time.perf_counter() - t0) * 1000.0
            record = {
                "id": response.get("id"),
                "ok": bool(response.get("ok")),
                "tier": response.get("tier", "remote"),
                "ms": ms,
            }
            if keep_responses:
                record["response"] = response
            records.append(record)

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(max(1, clients))))
    wall = time.perf_counter() - start
    return records, wall


def _percentile(sorted_ms: List[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    index = min(len(sorted_ms) - 1, int(q * (len(sorted_ms) - 1) + 0.5))
    return round(sorted_ms[index], 3)


def dedup_summary(requests: Sequence[dict], records) -> dict:
    """Coalescing accounting: did any content hash cold-compute twice?

    Request ids are unique per pass (``build_requests`` stamps
    ``base#k``), so mapping id -> canonical content hash lets the
    summary count cold-tier responses per *hash*.  A hash answered cold
    twice means the daemon's coalescing failed;
    ``duplicate_computations`` must be 0 and ``--assert-no-duplicates``
    turns that into an exit code.
    """
    from repro.service.request import JobRequest

    hash_of = {}
    for obj in requests:
        try:
            hash_of[obj.get("id")] = JobRequest.from_json(
                dict(obj)
            ).content_hash()
        except Exception:
            continue
    cold_hashes = [
        hash_of[r["id"]]
        for r in records
        if r["tier"] == "cold" and r["id"] in hash_of
    ]
    distinct_cold = set(cold_hashes)
    return {
        "unique_hashes": len(set(hash_of.values())),
        "cold_responses": len(cold_hashes),
        "distinct_cold_hashes": len(distinct_cold),
        "duplicate_computations": len(cold_hashes) - len(distinct_cold),
    }


def summarize(
    records, wall: float, clients: int, serve_snapshot=None, requests=None
) -> dict:
    """Throughput + exact per-tier latency quantiles for one pass."""
    by_tier = {}
    ok = 0
    errors = 0
    for record in records:
        by_tier.setdefault(record["tier"], []).append(record["ms"])
        if record["ok"]:
            ok += 1
        else:
            errors += 1
    tiers = {}
    for tier, samples in sorted(by_tier.items()):
        samples.sort()
        tiers[tier] = {
            "count": len(samples),
            "p50_ms": _percentile(samples, 0.50),
            "p99_ms": _percentile(samples, 0.99),
            "mean_ms": round(sum(samples) / len(samples), 3),
            "max_ms": round(samples[-1], 3),
        }
    summary = {
        "requests": len(records),
        "clients": clients,
        "ok": ok,
        "errors": errors,
        "wall_seconds": round(wall, 6),
        "throughput_rps": round(len(records) / wall, 3) if wall > 0 else 0.0,
        "tiers": tiers,
    }
    if serve_snapshot is not None:
        summary["serve"] = serve_snapshot
    if requests is not None:
        summary["dedup"] = dedup_summary(requests, records)
    return summary


async def run_inprocess(
    requests: Sequence[dict],
    clients: int,
    config: Optional[ServeConfig] = None,
    passes: int = 1,
    keep_responses: bool = False,
) -> List[Tuple[dict, List[dict]]]:
    """Drive an in-process daemon; one (summary, records) per pass."""
    daemon = CountingDaemon(config)
    daemon.start()
    try:
        results = []
        for _ in range(max(1, passes)):
            records, wall = await _drive(
                daemon.handle, requests, clients, keep_responses
            )
            results.append(
                (
                    summarize(
                        records,
                        wall,
                        clients,
                        daemon.metrics.snapshot(),
                        requests=requests,
                    ),
                    records,
                )
            )
        return results
    finally:
        await daemon.drain()


# -- a tiny HTTP/1.1 client (stdlib-only, keep-alive) --------------------


async def _http_request(reader, writer, method, path, doc=None):
    body = b"" if doc is None else json.dumps(doc).encode("utf-8")
    head = (
        "%s %s HTTP/1.1\r\n"
        "Host: loadgen\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "\r\n" % (method, path, len(body))
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    return status, json.loads(payload) if payload else {}


async def run_http(
    url: str,
    requests: Sequence[dict],
    clients: int,
    keep_responses: bool = False,
) -> Tuple[dict, List[dict]]:
    """Drive a running daemon over HTTP; returns (summary, records)."""
    parsed = urlparse(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 8722
    connections = []

    async def connect():
        reader, writer = await asyncio.open_connection(host, port)
        connections.append(writer)
        return reader, writer

    locks_free = asyncio.Queue()
    for _ in range(max(1, clients)):
        locks_free.put_nowait(await connect())

    async def submit(obj):
        reader, writer = await locks_free.get()
        try:
            _status, doc = await _http_request(
                reader, writer, "POST", "/job", obj
            )
            return doc
        finally:
            locks_free.put_nowait((reader, writer))

    try:
        records, wall = await _drive(submit, requests, clients, keep_responses)
        reader, writer = await locks_free.get()
        _status, stats_doc = await _http_request(reader, writer, "GET", "/stats")
        locks_free.put_nowait((reader, writer))
        serve_snapshot = stats_doc.get("serve")
        return (
            summarize(
                records, wall, clients, serve_snapshot, requests=requests
            ),
            records,
        )
    finally:
        for writer in connections:
            writer.close()


# -- CLI -----------------------------------------------------------------


def loadgen_main(args) -> int:
    """Entry point behind ``python -m repro loadgen``."""
    base = base_requests(args.corpus)
    requests = build_requests(
        base, args.requests, rename_mix=args.rename_mix, seed=args.seed
    )
    if args.url:
        summary, _records = asyncio.run(
            run_http(args.url, requests, args.clients)
        )
        summaries = [summary]
    else:
        config = ServeConfig.from_env(
            cache_path=None if args.no_cache else args.cache,
            **{
                k: v
                for k, v in (
                    ("workers", args.workers),
                    ("queue_limit", args.queue_limit),
                    ("default_timeout", args.timeout),
                    ("default_budget", args.budget),
                )
                if v is not None
            }
        )
        results = asyncio.run(
            run_inprocess(requests, args.clients, config, passes=args.passes)
        )
        summaries = [summary for summary, _records in results]
    doc = summaries[0] if len(summaries) == 1 else {"passes": summaries}
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if getattr(args, "assert_no_duplicates", False):
        duplicates = sum(
            summary.get("dedup", {}).get("duplicate_computations", 0)
            for summary in summaries
        )
        if duplicates:
            print(
                "loadgen: FAIL: %d content hash(es) cold-computed more "
                "than once" % duplicates,
                file=sys.stderr,
            )
            return 1
    return 0


__all__ = [
    "DEFAULT_BASE_REQUESTS",
    "TIERS",
    "alpha_variant",
    "base_requests",
    "build_requests",
    "dedup_summary",
    "loadgen_main",
    "requests_from_corpus_dir",
    "run_http",
    "run_inprocess",
    "summarize",
]
