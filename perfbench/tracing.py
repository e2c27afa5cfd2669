"""Spans around calls into the program's layers, kept in memory.

The traced run wraps public functions of each layer (module functions,
class methods, or one object's methods) with :meth:`Tracer.wrap`; each
call records a span ``[name, start, end, parent, request id]``.  The
parent is the innermost open span of the same task or thread, carried
in a :class:`contextvars.ContextVar` so concurrent asyncio tasks keep
separate stacks.  A request's content hash, once computed, becomes the
id of every span of that request.  Nothing inside the program changes;
the wrappers are removed by :meth:`Tracer.restore`.
"""

import contextvars
import functools
import inspect
import json
import time
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patches = []

    @contextmanager
    def span(self, name, req=None):
        parent = self._current.get()
        rec = [name, time.perf_counter(), None, parent, req]
        self.spans.append(rec)
        token = self._current.set(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._current.reset(token)

    def tag_request(self, req_id):
        """Give the open spans of the current request the id ``req_id``."""
        rec = self._current.get()
        while rec is not None:
            if rec[4] is None:
                rec[4] = req_id
            rec = rec[3]

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``on_result(result)`` runs after each call, inside the caller's
        context, so it can tag or count.
        """
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = await original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

        else:

            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

        functools.update_wrapper(wrapper, original)
        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def propagate_into_executors(self, loop):
        """Carry the current span into ``loop.run_in_executor`` threads."""
        original = loop.run_in_executor

        def run_in_executor(executor, func, *args):
            ctx = contextvars.copy_context()
            return original(executor, functools.partial(ctx.run, func), *args)

        self.patch(loop, "run_in_executor", run_in_executor)

    def restore(self):
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def self_times(self):
        """{span name: (calls, total self seconds)}.

        A span's self time is its duration minus the part of it that
        its children cover (children of concurrent requests can
        overlap, so the covered part is the union of their intervals).
        """
        children = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append(rec)
        out = {}
        for rec in self.spans:
            if rec[2] is None:
                continue
            start, end = rec[1], rec[2]
            covered = 0.0
            cursor = start
            kids = sorted(
                (max(c[1], start), min(c[2] if c[2] is not None else end, end))
                for c in children.get(id(rec), ())
            )
            for lo, hi in kids:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            calls, total = out.get(rec[0], (0, 0.0))
            out[rec[0]] = (calls + 1, total + (end - start) - covered)
        return out

    def dump(self, path, meta):
        """Write every span (parents as indices) and ``meta`` as JSON."""
        index = {id(rec): k for k, rec in enumerate(self.spans)}
        rows = []
        for rec in self.spans:
            parent = rec[3]
            id_ = rec[4]
            while id_ is None and parent is not None:
                id_ = parent[4]
                parent = parent[3]
            rows.append(
                {
                    "name": rec[0],
                    "start": rec[1],
                    "end": rec[2],
                    "parent": index.get(id(rec[3])) if rec[3] is not None else None,
                    "id": id_,
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)
