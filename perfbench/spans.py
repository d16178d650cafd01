"""Spans around the public functions of each gaugestrata layer.

Used only by the traced run. ``Tracer.install`` replaces every module
binding of each function in ``LAYERS`` (``cli`` and ``strata`` import
several of them by name, the package re-exports all of them) with a
wrapper that records one span per call: name, start, end, parent span,
query id; ``Tracer.uninstall`` puts the originals back, so one run can
alternate traced and untraced attempts. ``labels.descendants`` is never
wrapped: it is called millions of times at n = 10 and would drown the
figures in wrapper cost.

Self time of a span is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = [
    ("labels", "enumerate_labels"), ("labels", "hasse_diagram"),
    ("labels", "direct_successors"), ("labels", "parse_label"),
    ("strata", "stratification_graph"), ("strata", "orbit_types"),
    ("strata", "annotate"), ("diophantine", "d_s4"), ("diophantine", "d_s2xs2"),
    ("diophantine", "cp2_solvable"), ("cli", "main"),
]

# span fields
NAME, START, END, PARENT, QUERY, NOTE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.query = -1

    def _wrap(self, name, fn, note_of=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = note_of(*args) if note_of else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, note, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Put the wrappers in place of every module binding of each layer
        function; ``uninstall`` puts the originals back."""
        if not hasattr(self, "_patches"):
            self._patches = self._patch_list()
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, orig, _ in self._patches:
            setattr(module, attr, orig)

    def _patch_list(self) -> list:
        dio = importlib.import_module("gaugestrata.diophantine")
        plain_d_s4 = dio.d_s4

        def cp2_branch(label, *_):
            return "box" if plain_d_s4(label) == 0 else "modular"

        modules = [m for name, m in list(sys.modules.items())
                   if name == "gaugestrata" or name.startswith("gaugestrata.")]
        patches = []
        for mod, fname in LAYERS:
            orig = getattr(importlib.import_module(f"gaugestrata.{mod}"), fname)
            traced = self._wrap(f"{mod}.{fname}", orig,
                                cp2_branch if fname == "cp2_solvable" else None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        patches.append((module, attr, orig, traced))
        return patches

    def write(self, path) -> None:
        """Append the spans to a gzip file, one JSON list per line; the
        query id of a span is (pass, deck index)."""
        with gzip.open(path, "at") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def aggregate(self) -> dict:
        """Per name: calls, total self time, self time per NOTE, and calls
        per query id."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        agg: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                         "by_note": defaultdict(float),
                                         "by_query": defaultdict(int)})
        for i, span in enumerate(self.spans):
            entry = agg[span[NAME]]
            self_s = span[END] - span[START] - child[i]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["by_note"][span[NOTE]] += self_s
            entry["by_query"][span[QUERY]] += 1
        return agg
