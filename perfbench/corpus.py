"""Seeded inputs for every workload, and how each answer is checked.

Everything here is a pure function of the seed: the same seed always
gives the same requests in the same order.  The program under test
only ever sees the generated requests.
"""

import itertools
import random

# -- engine ------------------------------------------------------------------

#: The paper's formulas (EXPERIMENTS.md T1 and E1-E6) with the answers
#: the paper asserts.  ``terms`` is the number of pieces of the raw
#: answer, ``closed`` the single simplified term the paper prints, and
#: ``value`` a concrete count; every answer is also compared with
#: :func:`_brute_paper` at concrete symbol values.
PAPER = [
    {"id": "T1a", "text": "1 <= i <= 10", "over": ["i"], "closed": "10"},
    {"id": "T1b", "text": "1 <= i <= n", "over": ["i"], "closed": "n"},
    {
        "id": "T1c",
        "text": "1 <= i <= n and 1 <= j <= n",
        "over": ["i", "j"],
        "closed": "n**2",
    },
    {
        "id": "T1d",
        "text": "1 <= i and i < j and j <= n",
        "over": ["i", "j"],
        "closed": "1/2*n**2 - 1/2*n",
    },
    {
        "id": "E1",
        "text": "1 <= i <= n and 1 <= j <= i and j <= k <= m",
        "over": ["i", "j", "k"],
        "terms": 2,
    },
    {
        "id": "E2",
        "text": "1 <= i <= n and 3 <= j <= i and j <= k <= 5",
        "over": ["i", "j", "k"],
        "terms": 2,
    },
    {
        "id": "E3",
        "text": "1 <= i <= 2*n and 1 <= j <= i and i + j <= 2*n",
        "over": ["i", "j"],
        "closed": "n**2",
    },
    {
        "id": "E4",
        "text": "exists i, j: 1 <= i <= 8 and 1 <= j <= 5 and x = 6*i + 9*j - 7",
        "over": ["x"],
        "value": 25,
    },
    {
        "id": "E5",
        "text": "1 <= x and 1 <= y and x <= N and y <= N and 3 <= x + y and "
        "x + y <= 2*N - 1 and 2 - N <= x - y and x - y <= N - 2",
        "over": ["x", "y"],
        "closed": "N**2 - 4",
    },
    {
        "id": "E6",
        "text": "1 <= i and 1 <= j <= n and 2*i <= 3*j",
        "over": ["i", "j"],
        "closed": "3/4*n**2 + 1/2*n - 1/4*((n) mod 2)",
    },
]


def _brute_paper(pid, env):
    """The paper's counts by enumeration (EXPERIMENTS.md benches)."""
    n = env.get("n", 0)
    m = env.get("m", 0)
    big_n = env.get("N", 0)
    r = range
    if pid == "T1a":
        return 10
    if pid == "T1b":
        return max(n, 0)
    if pid == "T1c":
        return max(n, 0) ** 2
    if pid == "T1d":
        return sum(1 for i in r(1, n + 1) for j in r(i + 1, n + 1))
    if pid == "E1":
        return sum(
            1
            for i in r(1, n + 1)
            for j in r(1, i + 1)
            for k in r(j, m + 1)
        )
    if pid == "E2":
        return sum(
            1 for i in r(1, n + 1) for j in r(3, i + 1) for k in r(j, 6)
        )
    if pid == "E3":
        return sum(
            1
            for i in r(1, 2 * n + 1)
            for j in r(1, i + 1)
            if i + j <= 2 * n
        )
    if pid == "E4":
        return len({6 * i + 9 * j - 7 for i in r(1, 9) for j in r(1, 6)})
    if pid == "E5":
        return sum(
            1
            for x in r(1, big_n + 1)
            for y in r(1, big_n + 1)
            if 3 <= x + y <= 2 * big_n - 1 and 2 - big_n <= x - y <= big_n - 2
        )
    if pid == "E6":
        return sum(1 for j in r(1, n + 1) for i in r(1, (3 * j) // 2 + 1))
    raise KeyError(pid)


#: Cone-friendly large-coefficient triangles (the genfunc bench family,
#: smaller members so the recursion stays under a few hundred ms).
LARGE_COEFF = [
    (13, 17, 200, 11, 7, 40),
    (11, 19, 150, 7, 5, 30),
    (17, 23, 260, 13, 11, 50),
]

#: Elimination-friendly quantified strides whose projection splinters.
DEEP_SPLINTER = [
    (23, 7, 40, 60, 240, 280),
    (31, 9, 55, 80, 320, 360),
    (19, 5, 33, 70, 300, 330),
    (29, 8, 49, 90, 380, 420),
]

#: Fuzz-generator cases per engine round (generator seeds 0..N-1).
ENGINE_GENERATED = 100


def _large_coeff_text(params, i, j):
    a, b, n, c, d, m = params
    return "0 <= %s and 0 <= %s and %d*%s + %d*%s <= %d and %d*%s <= %d*%s + %d" % (
        i, j, a, i, b, j, n, c, i, d, j, m,
    )


def _large_coeff_count(params):
    a, b, n, c, d, m = params
    return sum(
        1
        for i in range(0, n // a + 1)
        for j in range(0, (n - a * i) // b + 1)
        if c * i <= d * j + m
    )


def _deep_splinter_text(params, i, k):
    a, b, c, n, n2, s = params
    return (
        "exists %s: %d*%s <= %d*%s and %d*%s <= %d*%s + %d "
        "and 0 <= %s <= %d and 0 <= %s <= %d and %s + %s <= %d"
        % (k, a, i, b, k, b, k, a, i, c, i, n, k, n2, i, k, s)
    )


def _deep_splinter_count(params):
    a, b, c, n, n2, s = params
    return sum(
        1
        for i in range(0, n + 1)
        if any(
            a * i <= b * k <= a * i + c and i + k <= s
            for k in range(0, n2 + 1)
        )
    )


def _fresh_names(rng, names, tag):
    return {v: "%s_%s%d" % (v, tag, rng.randrange(10000)) for v in names}


class EngineCorpus:
    """One engine round: a fixed mix of formulas, renamed per round.

    Every round holds the same formulas -- the paper's, the first
    :data:`ENGINE_GENERATED` fuzz-generator cases and the two large
    families -- so rounds cost the same and a run's figures do not hang
    on which formulas a seed happened to draw.  The seed renames the
    counted variables of the generated and family formulas and orders
    the round.
    """

    def __init__(self, seed):
        from repro.testkit import generate_case

        self.seed = seed
        self.cases = [generate_case(k) for k in range(ENGINE_GENERATED)]
        self.family_counts = {}
        for params in LARGE_COEFF:
            self.family_counts[("lc",) + params] = _large_coeff_count(params)
        for params in DEEP_SPLINTER:
            self.family_counts[("ds",) + params] = _deep_splinter_count(params)

    def round(self, index):
        """The items of round ``index``: dicts with text/over/poly/check."""
        from repro.testkit import formula_to_text, rename_formula

        rng = random.Random("engine:%d:%d" % (self.seed, index))
        items = []
        for paper in PAPER:
            items.append(
                {
                    "id": paper["id"],
                    "family": "paper",
                    "text": paper["text"],
                    "over": list(paper["over"]),
                    "poly": None,
                    "check": ("paper", paper["id"]),
                }
            )
        for k, case in enumerate(self.cases):
            mapping = _fresh_names(rng, case.over, "g")
            poly = None
            if case.poly_text:
                from repro.qpoly.parse import parse_polynomial

                poly = str(parse_polynomial(case.poly_text).rename(mapping))
            items.append(
                {
                    "id": "gen%d" % k,
                    "family": "generated",
                    "text": formula_to_text(rename_formula(case.formula, mapping)),
                    "over": [mapping[v] for v in case.over],
                    "poly": poly,
                    "check": ("generated", k),
                }
            )
        for params in LARGE_COEFF:
            names = _fresh_names(rng, ("i", "j"), "c")
            items.append(
                {
                    "id": "lc%d_%d" % params[:2],
                    "family": "large_coeff",
                    "text": _large_coeff_text(params, names["i"], names["j"]),
                    "over": [names["i"], names["j"]],
                    "poly": None,
                    "check": ("value", self.family_counts[("lc",) + params]),
                }
            )
        for params in DEEP_SPLINTER:
            names = _fresh_names(rng, ("i", "k"), "s")
            items.append(
                {
                    "id": "ds%d_%d" % params[:2],
                    "family": "deep_splinter",
                    "text": _deep_splinter_text(params, names["i"], names["k"]),
                    "over": [names["i"]],
                    "poly": None,
                    "check": ("value", self.family_counts[("ds",) + params]),
                }
            )
        rng.shuffle(items)
        return items

    def check(self, item, result):
        """None when ``result`` is the right answer, else a reason."""
        kind = item["check"][0]
        if kind == "value":
            got = result.evaluate({})
            want = item["check"][1]
            return None if got == want else "%s: got %s, want %s" % (
                item["id"], got, want,
            )
        if kind == "paper":
            return _check_paper(item["check"][1], result)
        return self._check_generated(item, result)

    def _check_generated(self, item, result):
        from repro.qpoly.parse import parse_polynomial
        from repro.testkit import oracle_count, oracle_sum

        case = self.cases[item["check"][1]]
        for env in case.envs:
            if case.poly_text:
                want = oracle_sum(
                    case.formula, case.over, parse_polynomial(case.poly_text), env
                )
            else:
                want = oracle_count(case.formula, case.over, env)
            got = result.evaluate(env)
            if got != want:
                return "%s: got %s, oracle %s at %s" % (item["id"], got, want, env)
        return None


def _check_paper(pid, result):
    spec = next(p for p in PAPER if p["id"] == pid)
    if "terms" in spec and len(result.terms) != spec["terms"]:
        return "%s: %d pieces, paper has %d" % (pid, len(result.terms), spec["terms"])
    if "closed" in spec:
        simple = result.simplified()
        if len(simple.terms) != 1 or str(simple.terms[0].value) != spec["closed"]:
            return "%s: closed form %s, paper has %s" % (pid, simple, spec["closed"])
    if "value" in spec and result.evaluate({}) != spec["value"]:
        return "%s: %s, paper has %d" % (pid, result.evaluate({}), spec["value"])
    for env in [{"n": v, "m": v % 6, "N": v} for v in range(0, 12)]:
        want = _brute_paper(pid, env)
        if result.evaluate(env) != want:
            return "%s: %s at %s, brute force %s" % (
                pid, result.evaluate(env), env, want,
            )
    return None


# -- service requests ----------------------------------------------------------

#: Count/sum/evaluate shapes of the serve load generator's base set,
#: with a per-job constant ``{c}`` so every content hash is new.
BATCH_TEMPLATES = [
    {"kind": "count", "formula": "1 <= i and i < j and j <= n + {c}", "over": ["i", "j"]},
    {
        "kind": "count",
        "formula": "1 <= i <= n and 1 <= j <= m + {c} and 2 | (i + j)",
        "over": ["i", "j"],
    },
    {
        "kind": "count",
        "formula": "1 <= i <= n and 1 <= j <= n and i + j <= n + {c}",
        "over": ["i", "j"],
    },
    {"kind": "count", "formula": "0 <= i <= n + {c} and 3 | (i + n)", "over": ["i"]},
    {"kind": "sum", "formula": "1 <= i <= n + {c}", "over": ["i"], "poly": "i*i"},
    {
        "kind": "sum",
        "formula": "1 <= i <= n and 1 <= j <= i + {c}",
        "over": ["i", "j"],
        "poly": "i*j",
    },
    {
        "kind": "evaluate",
        "formula": "1 <= i and i < j and j <= n + {c}",
        "over": ["i", "j"],
        "at": [{"n": 10}, {"n": 25}, {"n": 100}],
    },
]


def batch_jobs(seed, chunk_index, chunk_size):
    """Chunk ``chunk_index`` of the batch_cold stream: distinct small jobs.

    Each chunk cycles the templates in a seeded order; the constant of
    job ``k`` is ``seed_offset + k``, so no two jobs of a run (or of
    runs with different seeds) share a content hash.
    """
    rng = random.Random("batch:%d:%d" % (seed, chunk_index))
    offset = 1 + (seed % 100000) * 1000
    order = list(range(len(BATCH_TEMPLATES))) * (
        -(-chunk_size // len(BATCH_TEMPLATES))
    )
    rng.shuffle(order)
    jobs = []
    for slot in range(chunk_size):
        k = chunk_index * chunk_size + slot
        obj = dict(BATCH_TEMPLATES[order[slot]])
        obj["formula"] = obj["formula"].format(c=offset + k)
        obj["id"] = "job%d" % k
        jobs.append(obj)
    return jobs


def alpha_variant(obj, rng):
    """An alpha-renamed copy of a request (same content hash).

    Imported on use, so the engine workload's process loads no serving
    code.
    """
    from repro.serve.loadgen import alpha_variant

    return alpha_variant(obj, rng)


def warm_requests(seed, base, tag="timed"):
    """The endless serve_warm request stream over the pre-warmed ``base``.

    Every request is a base request; half are alpha-renamed, and half
    of the ``evaluate``/``member`` requests carry a fresh point set (a
    new content hash answered by the evalc artifact or the resident
    automaton instead of the results store).  A serial in each fresh
    point set keeps point sets distinct across the whole run; ``tag``
    keeps a warm-up stream apart from the timed one.
    """
    rng = random.Random("warm:%s:%d" % (tag, seed))
    serial0 = 0 if tag == "timed" else 10 ** 7
    for k in itertools.count():
        obj = dict(base[k % len(base)])
        if obj["kind"] in ("evaluate", "member") and rng.random() < 0.5:
            obj["at"] = _fresh_points(obj, rng, serial0 + k)
        if rng.random() < 0.5:
            obj = alpha_variant(obj, rng)
        obj["id"] = "%s%d" % (tag[0], k)
        yield obj


def _fresh_points(obj, rng, serial):
    if obj["kind"] == "evaluate":
        return [{"n": 200 + serial}, {"n": rng.randrange(0, 60)}]
    return [
        {"i": rng.randrange(-3, 24), "j": rng.randrange(-3, 24)},
        {"i": rng.randrange(-3, 24), "j": 1000 + serial},
    ]


#: Fresh cold shapes for serve_mixed: forked count/sum jobs and new
#: member/count_below formulas whose automata the daemon builds in
#: process.
MIXED_COLD_TEMPLATES = [
    {"kind": "count", "formula": "1 <= i <= n and 1 <= j <= i + {c}", "over": ["i", "j"]},
    {"kind": "sum", "formula": "1 <= i <= n + {c}", "over": ["i"], "poly": "i*i + i"},
    {
        "kind": "member",
        "formula": "0 <= i <= {a} and 0 <= j <= {a} and i + j <= {b} and 2 | (i + j + {c})",
        "over": ["i", "j"],
        "at": [{"i": 3, "j": 5}, {"i": 7, "j": 9}, {"i": 40, "j": 0}],
    },
    {
        "kind": "count_below",
        "formula": "3 | (i + 2*j + {c}) and i <= 2*j",
        "over": ["i", "j"],
        "bound": 16,
    },
]


def cold_schedule(seed, seconds, cold_rate, burst_every, burst_size):
    """serve_mixed's open-loop cold stream: (due seconds, stream, request).

    A new cold request every ``1/cold_rate`` seconds, cycling
    :data:`MIXED_COLD_TEMPLATES` (stream ``cold``); every
    ``burst_every`` seconds also ``burst_size`` alpha-variants of one
    new count request at the same instant (stream ``burst``), which the
    daemon should coalesce.  The constants that set a request's cost
    depend on its position only, so every seed asks for the same work.
    """
    rng = random.Random("mixed:%d" % seed)
    offset = 1 + (seed % 100000) * 1000
    events = []
    for k in range(int(seconds * cold_rate)):
        obj = dict(MIXED_COLD_TEMPLATES[k % len(MIXED_COLD_TEMPLATES)])
        size = 10 + (7 * k) % 40
        obj["formula"] = obj["formula"].format(c=offset + k, a=size, b=size + 2)
        obj["id"] = "c%d" % k
        events.append(((k + 0.5) / cold_rate, "cold", obj))
    for b in range(int(seconds / burst_every)):
        base_obj = {
            "kind": "count",
            "formula": "1 <= i <= n + %d and 1 <= j <= i + 2" % (offset + b),
            "over": ["i", "j"],
        }
        for v in range(burst_size):
            obj = alpha_variant(base_obj, rng)
            obj["id"] = "b%d.%d" % (b, v)
            events.append(((b + 0.3) * burst_every, "burst", obj))
    events.sort(key=lambda e: e[0])
    return events


def stable(response):
    """A response without the keys that may differ run to run."""
    from repro.service.batch import VOLATILE_RESPONSE_KEYS

    return {k: v for k, v in response.items() if k not in VOLATILE_RESPONSE_KEYS}


def compare(response, want):
    """(problem or None, relabelled) for a response against ``want``.

    ``want`` is :func:`reference_response` of the same request.  One
    difference is allowed and reported apart: a ``member`` answer taken
    from the store under another spelling of the formula echoes that
    spelling's variable names in its points (the content hash is
    alpha-invariant, the echoed ``at`` keys are not).  Its values and
    coordinates must still match point by point.
    """
    got = stable(response)
    if got == want:
        return None, False
    if got.get("kind") == "member" and _relabelled(got, want):
        return None, True
    return "%s: %s != %s" % (want.get("id"), got, want), False


def _relabelled(got, want):
    def rest(doc):
        return {k: v for k, v in doc.items() if k != "points"}

    if rest(got) != rest(want) or len(got["points"]) != len(want["points"]):
        return False
    return all(
        g["value"] == w["value"] and list(g["at"].values()) == list(w["at"].values())
        for g, w in zip(got["points"], want["points"])
    )


def reference_response(obj):
    """The in-process ``execute_request`` answer a response must equal."""
    from repro.service.batch import response_core
    from repro.service.executor import execute_request
    from repro.service.request import JobRequest

    req = JobRequest.from_json(obj)
    response = {"id": obj.get("id"), "ok": True}
    response.update(response_core(execute_request(req)))
    return stable(response)
