"""Span tracer for the traced benchmark run.

Wraps every public function of every ``workbench`` module, in every
module namespace that binds it (``member`` is imported by name into
``etol`` and ``cli``, for example), so a call through any of those names
opens a span.  A span is (name, start, end, parent).  Self time is the
span's duration minus the time its child spans cover; on one thread the
children of a span are disjoint intervals inside it, so that is the
duration minus the sum of the child durations.  Self time and call
counts are accumulated while the run goes; the spans themselves are
kept (up to a cap) and written out at the end.

Per-call work counts are read from arguments and return values, so the
library itself is never edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

MODULES = (
    "foundation", "semilinear", "vecautomata", "counter", "etol",
    "matrix", "series", "commutative", "cli",
)


def _count_hooks():
    """Per-function hooks ``(args, result, counts) -> None`` that add work
    counts; keyed by ``module.function``."""

    def add(counts, key, n):
        counts[key] = counts.get(key, 0) + n

    def from_equations(args, res, c):
        add(c, "vecautomata.from_equations.states", res.n_states)

    def project(args, res, c):
        add(c, "vecautomata.project.states_in", args[0].n_states)
        add(c, "vecautomata.project.states_out", res.n_states)

    def combine(args, res, c):
        add(c, "vecautomata.combine.states_out", res.n_states)

    def member(args, res, c):
        add(c, "semilinear.member.hits", 1 if res else 0)

    def accepted_words(args, res, c):
        add(c, "counter.accepted_words.expansions", res.explored)
        add(c, "counter.accepted_words.words", len(res.words))

    def count_exact(name):
        def hook(args, res, c):
            add(c, name + ".inexact", 0 if res.exact else 1)
        return hook

    def szilard(args, res, c):
        add(c, "matrix.szilard_dfa.states", len(res.states))

    return {
        "vecautomata.from_equations": from_equations,
        "vecautomata.project": project,
        "vecautomata.combine": combine,
        "semilinear.member": member,
        "counter.accepted_words": accepted_words,
        "etol.count_trees": count_exact("etol.count_trees"),
        "matrix.count_derivations": count_exact("matrix.count_derivations"),
        "matrix.szilard_dfa": szilard,
    }


class Tracer:
    """Installs span wrappers into the ``workbench`` modules and removes
    them again.  One instance per traced run."""

    MAX_SPANS = 100_000    # spans kept for the file; self times count them all

    def __init__(self):
        self.names = []            # span name per name id
        self._name_ids = {}
        self.self_time = {}        # span name -> seconds
        self.calls = {}            # span name -> count
        self.counts = {}           # work counters from the hooks
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.spans_dropped = 0
        self._stack = []           # [span index or -1, start, child time]
        self._saved = []           # (namespace dict, attribute, original)
        self._hooks = _count_hooks()

    # ------------------------------------------------------------ install

    def install(self):
        mods = {m: sys.modules["workbench." + m] for m in MODULES}
        originals = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    originals[obj] = "%s.%s" % (mname, attr)
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((ns, attr, obj))
                    ns[attr] = wrappers[obj]
        return self

    def uninstall(self):
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        keyed = name == "foundation.enumerate_language"
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name + "." + type(args[0]).__name__ if keyed else name
            stack = tracer._stack
            start = clock()
            frame = [tracer._open(span, start, stack[-1][0] if stack else -1), start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_time[span] = tracer.self_time.get(span, 0.0) + dur - frame[2]
                tracer.calls[span] = tracer.calls.get(span, 0) + 1
                if stack:
                    stack[-1][2] += dur
                if frame[0] >= 0:
                    tracer.span_end[frame[0]] = end
            if hook is not None:
                hook(args, result, tracer.counts)
            if keyed:
                key = span + ".explored"
                tracer.counts[key] = tracer.counts.get(key, 0) + result.explored
            return result

        return wrapper

    def _open(self, span, start, parent):
        """Index of the new span, or -1 once the span buffer is full."""
        if len(self.span_start) >= self.MAX_SPANS:
            self.spans_dropped += 1
            return -1
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_name.append(self._name_id(span))
        self.span_parent.append(parent)
        return len(self.span_start) - 1

    # ------------------------------------------------------------ results

    def spans(self):
        """Recorded spans as (name, start, end, parent index) tuples."""
        return [
            (self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
             self.span_parent[i])
            for i in range(len(self.span_start))
        ]

    def module_self_time(self):
        out = {}
        for span, t in self.self_time.items():
            mod = span.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + t
        return out

    def write(self, path):
        doc = {
            "spans": self.spans(),
            "spans_dropped": self.spans_dropped,
            "self_time": self.self_time,
            "calls": self.calls,
            "counts": self.counts,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def self_times_from_spans(spans):
    """Self time per span name from (name, start, end, parent) records:
    each span's duration minus the time covered by its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out
