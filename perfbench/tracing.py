"""In-memory span tracing around regsync's public functions.

`Tracer.install()` replaces each traced function at every module attribute
bound to it (for example `regsync.dra.is_complete` as well as
`regsync.ra.is_complete`) and the traced `Engine` methods on the class, and
`uninstall()` puts the originals back.  A span records its name, layer,
query id, parent, start and end.  Per-step calls (`abstract_post`,
`post_config`, `guard_mask`) are too frequent for a span each: their count
and time are added to the innermost open span instead.

A span's self time is its duration minus its child spans and the per-step
time charged to it.
"""

from __future__ import annotations

import importlib
import json
import time

from regsync.semantics import Engine

_MODULES = ("regsync", "regsync.ra", "regsync.semantics", "regsync.dra", "regsync.nra",
            "regsync.gadgets", "regsync.oracle", "regsync.dsl", "regsync.cli")

# (module, function name, layer).  dra._merge is the merge phase that
# synchronizing_word_dra runs; it has no public entry point of its own.
SPAN_FUNCTIONS = (
    ("regsync.dsl", "parse_automaton", "dsl"),
    ("regsync.ra", "validate", "ra"),
    ("regsync.ra", "is_complete", "ra"),
    ("regsync.ra", "is_deterministic", "ra"),
    ("regsync.semantics", "abstract_run", "semantics"),
    ("regsync.semantics", "post_set", "semantics"),
    ("regsync.dra", "synchronizing_word_dra", "dra"),
    ("regsync.dra", "shrink_word", "dra"),
    ("regsync.dra", "_merge", "dra"),
    ("regsync.dra", "dra1_decide", "dra"),
    ("regsync.dra", "inequality_update_check", "dra"),
    ("regsync.nra", "bounded_sync_search", "nra"),
    ("regsync.nra", "bounded_universality_witness", "nra"),
    ("regsync.nra", "nonemptiness_witness", "nra"),
    ("regsync.nra", "accepts", "nra"),
    ("regsync.gadgets", "gen_chain_dra", "gadgets"),
    ("regsync.gadgets", "gen_counter_nra", "gadgets"),
    ("regsync.gadgets", "reduce_nonuniv_to_sync", "gadgets"),
    ("regsync.gadgets", "reduce_sync_to_nonuniv", "gadgets"),
)
SPAN_METHODS = (
    ("__init__", "Engine.build"),
    ("abstract_run", "Engine.abstract_run"),
    ("post_set", "Engine.post_set"),
)
HOT_METHODS = ("abstract_post", "post_config")
HOT_FUNCTIONS = (("regsync.ra", "guard_mask"),)


class Span:
    __slots__ = ("id", "parent", "query", "name", "layer", "start", "end", "child_s",
                 "hot", "explored", "outcome")

    def __init__(self, sid, parent, query, name, layer, start):
        self.id = sid
        self.parent = parent
        self.query = query
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.child_s = 0.0
        # per-step name -> [calls, seconds, configs in, results new to the query]
        self.hot = {}
        self.explored = None
        self.outcome = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(h[1] for h in self.hot.values())

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "query": self.query, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "self_s": self.self_s, "hot": self.hot, "explored": self.explored,
                "outcome": self.outcome}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._query = -1
        self._seen = set()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin_query(self, query: int) -> None:
        self._query = query
        self._seen = set()

    def wrap(self, name, layer, fn):
        """`fn` wrapped to record one span per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), parent.id if parent else None, tracer._query,
                        name, layer, time.perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                out = err
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                span.explored = getattr(out, "explored", None)
                span.outcome = type(out).__name__
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, name, fn, is_post: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if tracer._stack:
                cell = tracer._stack[-1].hot.get(name)
                if cell is None:
                    cell = tracer._stack[-1].hot[name] = [0, 0.0, 0, 0]
                cell[0] += 1
                cell[1] += elapsed
                if is_post:
                    cell[2] += len(args[1].configs)
                    if out not in tracer._seen:
                        tracer._seen.add(out)
                        cell[3] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, module_name, attr, wrapper) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        for name in _MODULES:
            module = importlib.import_module(name)
            for key, value in vars(module).items():
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer in SPAN_FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), attr)
            self._rebind(module_name, attr, self.wrap(attr, layer, fn))
        for module_name, attr in HOT_FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), attr)
            self._rebind(module_name, attr, self._hot(attr, fn, is_post=False))
        for attr, name in SPAN_METHODS:
            self._restore.append((Engine, attr, Engine.__dict__[attr]))
            setattr(Engine, attr, self.wrap(name, "semantics", Engine.__dict__[attr]))
        for attr in HOT_METHODS:
            self._restore.append((Engine, attr, Engine.__dict__[attr]))
            setattr(Engine, attr, self._hot(attr, Engine.__dict__[attr],
                                            is_post=attr == "abstract_post"))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def write(self, handle) -> None:
        """The spans as JSON lines, in start order."""
        for span in self.spans:
            handle.write(json.dumps(span.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

PER_LAYER = {
    # name: unit
    "dsl.parse_calls": "count",
    "dsl.parse_s": "s",
    "ra.check_calls": "count",
    "ra.guard_mask_calls": "count",
    "ra.self_s": "s",
    "semantics.engine_builds": "count",
    "semantics.engine_build_s": "s",
    "semantics.abstract_post_calls": "count",
    "semantics.abstract_post_s": "s",
    "semantics.abstract_post_us": "us",
    "semantics.abstract_set_size": "configs",
    "semantics.post_config_calls": "count",
    "semantics.post_config_s": "s",
    "semantics.rest_self_s": "s",
    "dra.shrink_s": "s",
    "dra.shrink_abstract_posts": "count",
    "dra.merge_s": "s",
    "dra.merge_calls": "count",
    "dra.verify_s": "s",
    "dra.dra1_s": "s",
    "dra.self_s": "s",
    "nra.search_s": "s",
    "nra.explored": "count",
    "nra.nodes_per_s": "1/s",
    "nra.new_state_ratio": "fraction",
    "nra.budget_exhausted": "count",
    "nra.accepts_s": "s",
    "nra.nonempty_s": "s",
    "nra.universality_s": "s",
    "nra.self_s": "s",
    "gadgets.gen_s": "s",
    "oracle.verify_s": "s",
    "oracle.verify_calls": "count",
    "trace.overhead_ratio": "ratio",
}

_SEARCHES = ("bounded_sync_search", "bounded_universality_witness", "nonemptiness_witness")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times over the spans of queries (query id >= 0),
    plus gadgets.gen_s over the set-up spans."""
    m = {name: 0 for name in PER_LAYER if name.startswith(("dsl.", "ra.", "semantics.",
                                                           "dra.", "nra.", "gadgets."))}
    by_id = {}
    for span in spans:
        by_id[span.id] = span
    engine_self = 0.0
    post_new = post_calls_in_search = 0
    explored_s = 0.0
    for span in spans:
        if span.query < 0:
            parent = by_id.get(span.parent)
            if span.layer == "gadgets" and (parent is None or parent.layer != "gadgets"):
                m["gadgets.gen_s"] += span.duration
            continue
        name, d = span.name, span.duration
        for hot_name, (calls, secs, size, new) in span.hot.items():
            if hot_name == "guard_mask":
                m["ra.guard_mask_calls"] += calls
                m["ra.self_s"] += secs
            elif hot_name == "abstract_post":
                m["semantics.abstract_post_calls"] += calls
                m["semantics.abstract_post_s"] += secs
                m["semantics.abstract_set_size"] += size
                if name == "shrink_word":
                    m["dra.shrink_abstract_posts"] += calls
                if name in _SEARCHES[:2]:
                    post_calls_in_search += calls
                    post_new += new
            else:
                m["semantics.post_config_calls"] += calls
                m["semantics.post_config_s"] += secs
        if span.layer == "ra":
            m["ra.self_s"] += span.self_s
            if name in ("validate", "is_complete", "is_deterministic"):
                m["ra.check_calls"] += 1
        elif span.layer == "dsl":
            if name == "parse_automaton":
                m["dsl.parse_calls"] += 1
                m["dsl.parse_s"] += d
        elif span.layer == "semantics":
            if name == "Engine.build":
                m["semantics.engine_builds"] += 1
                m["semantics.engine_build_s"] += d
                engine_self += span.self_s
            else:
                m["semantics.rest_self_s"] += span.self_s
                parent = by_id.get(span.parent)
                if name == "Engine.abstract_run" and parent and parent.name == "synchronizing_word_dra":
                    m["dra.verify_s"] += d
        elif span.layer == "dra":
            m["dra.self_s"] += span.self_s
            if name == "shrink_word":
                m["dra.shrink_s"] += d
            elif name == "_merge":
                m["dra.merge_s"] += d
                m["dra.merge_calls"] += 1
            elif name == "dra1_decide":
                m["dra.dra1_s"] += d
        elif span.layer == "nra":
            m["nra.self_s"] += span.self_s
            if name in _SEARCHES:
                m["nra.explored"] += span.explored or 0
                explored_s += d
                if span.outcome == "BudgetExhausted":
                    m["nra.budget_exhausted"] += 1
            if name == "bounded_sync_search":
                m["nra.search_s"] += d
            elif name == "bounded_universality_witness":
                m["nra.universality_s"] += d
            elif name == "nonemptiness_witness":
                m["nra.nonempty_s"] += d
            elif name == "accepts":
                m["nra.accepts_s"] += d
    # The engine build's own lines (table compilation) count as semantics.
    m["semantics.rest_self_s"] += engine_self
    calls = m["semantics.abstract_post_calls"]
    m["semantics.abstract_post_us"] = 1e6 * m["semantics.abstract_post_s"] / calls if calls else 0.0
    m["semantics.abstract_set_size"] = m["semantics.abstract_set_size"] / calls if calls else 0.0
    m["nra.nodes_per_s"] = m["nra.explored"] / explored_s if explored_s else 0.0
    m["nra.new_state_ratio"] = post_new / post_calls_in_search if post_calls_in_search else 0.0
    return m
