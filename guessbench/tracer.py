"""Outside-in span tracer for the program's layer functions.

``Tracer.install`` replaces each listed function by a timing wrapper at
every place it is bound: the defining module's attribute, every name a
package module imported with ``from ... import`` (for example
``solvers.degree_closed_form``) and, for methods, the class attribute.
Nested spans give self time: a span's duration minus the time its child
spans cover.  Spans stay in memory (up to a cap) and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "guessnum"

# layer module -> traced functions ("Class.method" for methods)
TRACED = {
    "digraph": ("mas_exact", "structure_report", "strong_components",
                "clique_partition_number"),
    "guessing_graph": ("GuessingGraph.materialize", "GuessingGraph.zero_neighbors",
                       "degree_closed_form"),
    "_search": ("max_independent_set", "greedy_dsatur", "find_k_coloring",
                "exact_chromatic"),
    "solvers": ("guessing_number", "information_defect", "max_independent_set",
                "chromatic_number", "bounds_report", "a_s_exact",
                "_exterior_clique_cover", "_linear_seed_codes",
                "fixed_configurations"),
    "gf_linear": ("linear_guessing_number", "_bounded_lower", "_min_rank_exhaustive",
                  "rank_gfp", "nullspace_gfp"),
    "cyclic": ("polynomial_digraph_report", "digraph_from_polynomial"),
    "netcode": ("solvable", "from_text", "_simulate"),
}


def span_name(module, function):
    """Metric prefix of a traced function; metric names may not start with "_"."""
    return f"{module.lstrip('_')}.{function}"


SPAN_NAMES = tuple(span_name(mod, fn) for mod, fns in TRACED.items() for fn in fns)

SPAN_CAP = 100_000


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Per-function call counts and self time, plus the raw spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []  # (id, parent id, name, job, start, end)
        self.dropped = 0
        self._stack = []  # open spans: [child seconds, span id]
        self._next_id = 0
        self._job = -1
        self._seen = defaultdict(set)  # per job: keys already handled
        self.count = defaultdict(int)
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, functions in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for qualname in functions:
                span = span_name(mod_name, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, original, self._wrap(span, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- spans ---------------------------------------------------------------

    def begin_job(self, job):
        self._job = job
        self._stack.clear()
        self._seen.clear()

    def _wrap(self, span, original):
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - start
                self.calls[span] += 1
                self.self_s[span] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, span, self._job, start, end))
                else:
                    self.dropped += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def first_in_job(self, kind, key):
        seen = self._seen[kind]
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- output ------------------------------------------------------------

    def metrics(self, passes, raw_wall_s, wall_s, cache_hits, cache_lookups):
        """Per-pass calls and counts, and self time as a share of the wall time.

        ``raw_wall_s`` is the traced passes' measured busy time, against
        which self time is a share; ``wall_s`` is the same time normalized
        for machine speed, reported per pass as ``trace.wall_s``.
        """
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = (self.calls[span] / passes, "count")
            out[f"{span}.share"] = (_ratio(self.self_s[span], raw_wall_s), "ratio")
        out["trace.wall_s"] = (wall_s / passes, "s")
        c = self.count
        out["guessing_graph.materialize.configs"] = (c["materialize.configs"] / passes, "count")
        out["guessing_graph.materialize.bytes_computed"] = (
            c["materialize.configs_sq"] / 8 / passes, "bytes")
        out["guessing_graph.materialize.repeat_ratio"] = (
            _ratio(c["materialize.repeats"], c["materialize.builds"]), "ratio")
        out["digraph.mas_exact.repeat_ratio"] = (
            _ratio(c["mas.repeats"], self.calls["digraph.mas_exact"]), "ratio")
        out["solvers.a_s_exact.hit_ratio"] = (_ratio(cache_hits, cache_lookups), "ratio")
        out["search.max_independent_set.budget_hit_share"] = (
            _ratio(c["mis.budget_hits"], self.calls["search.max_independent_set"]), "ratio")
        out["search.find_k_coloring.calls_per_chromatic"] = (
            _ratio(self.calls["search.find_k_coloring"],
                   self.calls["search.exact_chromatic"]), "ratio")
        out["gf_linear.linear_guessing_number.exhaustive_share"] = (
            _ratio(c["linear.exhaustive"], self.calls["gf_linear.linear_guessing_number"]),
            "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, job, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "job": job, "start": start, "end": end}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")


# -- counters at the boundaries ---------------------------------------------


def _before_materialize(tracer, args, kwargs):
    handle = args[0]
    if handle.rows is not None:  # already built: returns at once
        return
    c = tracer.count
    c["materialize.builds"] += 1
    c["materialize.configs"] += handle.n_configs
    c["materialize.configs_sq"] += handle.n_configs**2
    if not tracer.first_in_job("materialize", (handle.digraph, handle.s)):
        c["materialize.repeats"] += 1


def _before_mas(tracer, args, kwargs):
    if not tracer.first_in_job("mas", args[0]):
        tracer.count["mas.repeats"] += 1


def _after_search_mis(tracer, args, kwargs, result):
    if not result[2]:
        tracer.count["mis.budget_hits"] += 1


def _after_linear(tracer, args, kwargs, result):
    if result.provenance == ("exhaustive", "exhaustive"):
        tracer.count["linear.exhaustive"] += 1


_BEFORE = {
    "guessing_graph.GuessingGraph.materialize": _before_materialize,
    "digraph.mas_exact": _before_mas,
}
_AFTER = {
    "search.max_independent_set": _after_search_mis,
    "gf_linear.linear_guessing_number": _after_linear,
}
