"""Layer tracer: wraps the public functions of every ``quiddity`` module
from outside and records a span per call.

A function is rebound in every ``quiddity.*`` namespace that holds it,
because ``from .x import f`` makes a separate binding in each importer
(``search.apply_type1``, ``cli.build_frieze`` and so on).  Modules are
looked up through importlib and ``sys.modules``: the package attribute
``quiddity.frieze`` is the function ``frieze``, not the module.  ``Mat2.__mul__`` and
``Dissection.__post_init__`` are wrapped on their classes.  ``uninstall``
puts every original object back.

Aggregates are kept for every call.  Span records (id, name, start, end,
parent id, job) are kept for the first ``SPAN_CAP`` spans only, so that
the hot leaf functions cannot exhaust memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("matrices", "surgery", "search", "dissection", "sturm", "frieze", "psl2", "cli")
# Methods traced on top of the module functions: (layer, class, method, span name).
METHODS = (
    ("matrices", "Mat2", "__mul__", "matrices.mat2_mul"),
    ("dissection", "Dissection", "__post_init__", "dissection.validate"),
)
# Functions whose return value's length is counted as produced items.
COUNT_RESULT = {"search.generative_enumerate", "search.brute_force_enumerate"}
OUTSIDE = len(LAYERS)  # pseudo-layer for time spent outside every span


def _layer_functions():
    """(name, layer index, function) for every traced callable."""
    found = []
    for lid, layer in enumerate(LAYERS):
        mod = importlib.import_module(f"quiddity.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found.append((f"{layer}.{attr}", lid, obj))
    return found


SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.job = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        funcs = _layer_functions()
        methods = []
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"quiddity.{layer}"], cls_name)
            methods.append((name, LAYERS.index(layer), cls, meth))
        self.names = [f[0] for f in funcs] + [m[0] for m in methods]
        self._reset()

        wrapper_of = {}
        for fid, (name, lid, fn) in enumerate(funcs):
            wrapper_of[id(fn)] = (fn, self._wrap(fn, fid, lid, name in COUNT_RESULT))
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "quiddity" or k.startswith("quiddity."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapper_of.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for k, (name, lid, cls, meth) in enumerate(methods):
            fid = len(funcs) + k
            self._patch(cls, meth, self._wrap(vars(cls)[meth], fid, lid, False))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _reset(self) -> None:
        nf, nl = len(self.names), len(LAYERS) + 1
        self.calls = [0] * nf
        self.items = [0] * nf
        self.busy = [0.0] * nf
        self.edges = [0] * (nl * nf)  # caller layer x callee function
        self.layer_calls = [0] * nl
        self.layer_busy = [0.0] * nl
        self.layer_self = [0.0] * nl
        self.spans: list[tuple] = []
        self._next_id = [0]
        self._fdepth = [0] * nf
        self._ldepth = [0] * nl
        self._lstack = [OUTSIDE]
        self._pstack = [-1]
        self._t_install = perf_counter()
        self._last = [self._t_install]

    @property
    def span_count(self) -> int:
        return self._next_id[0]

    def _wrap(self, fn, fid, lid, count_result):
        nf, cap, tracer = len(self.names), SPAN_CAP, self
        lstack, pstack, last, next_id = self._lstack, self._pstack, self._last, self._next_id
        calls, items, busy, fdepth = self.calls, self.items, self.busy, self._fdepth
        edges, spans = self.edges, self.spans
        layer_calls, layer_busy, layer_self, ldepth = (
            self.layer_calls, self.layer_busy, self.layer_self, self._ldepth)

        def enter():
            t0 = perf_counter()
            top = lstack[-1]
            layer_self[top] += t0 - last[0]
            last[0] = t0
            edges[top * nf + fid] += 1
            lstack.append(lid)
            sid = next_id[0]
            next_id[0] = sid + 1
            pstack.append(sid)
            fdepth[fid] += 1
            ldepth[lid] += 1
            return t0, sid

        def leave(t0, sid):
            t1 = perf_counter()
            layer_self[lid] += t1 - last[0]
            last[0] = t1
            lstack.pop()
            pstack.pop()
            fdepth[fid] -= 1
            if not fdepth[fid]:
                busy[fid] += t1 - t0
            ldepth[lid] -= 1
            if not ldepth[lid]:
                layer_busy[lid] += t1 - t0
            if sid < cap:
                spans.append((sid, fid, t0, t1, pstack[-1], tracer.job))

        if inspect.isgeneratorfunction(fn):
            # One call, one span per resumption: only time spent producing
            # items counts as busy, not the consumer's work in between.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[fid] += 1
                layer_calls[lid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        t0, sid = enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            leave(t0, sid)
                        items[fid] += 1
                        yield item
                finally:
                    it.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            layer_calls[lid] += 1
            t0, sid = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(t0, sid)
            if count_result:
                items[fid] += len(result)
            return result
        return traced

    # -- reading ------------------------------------------------------------

    def stat(self, name: str, field: str):
        fid = self.names.index(name)
        return {"calls": self.calls, "busy_s": self.busy, "items": self.items}[field][fid]

    def calls_from(self, caller_layer: str, name: str) -> int:
        """Calls of ``name`` made directly from a span of ``caller_layer``."""
        return self.edges[LAYERS.index(caller_layer) * len(self.names) + self.names.index(name)]

    def layer_stats(self) -> dict[str, float]:
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.layer_calls[lid]
            out[f"{layer}.busy_s"] = self.layer_busy[lid]
            out[f"{layer}.self_s"] = self.layer_self[lid]
        return out

    def spans_document(self, jobs: list[str]) -> dict:
        """The kept spans; start and end in microseconds since install,
        name and job as indices into their lists."""
        t0 = self._t_install
        return {
            "fields": ["id", "name", "start_us", "end_us", "parent", "job"],
            "names": self.names,
            "jobs": jobs,
            "span_count": self.span_count,
            "spans_kept": len(self.spans),
            "spans": [[sid, fid, round((a - t0) * 1e6), round((b - t0) * 1e6), parent, job]
                      for sid, fid, a, b, parent, job in self.spans],
        }
