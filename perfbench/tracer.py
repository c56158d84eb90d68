"""Span tracing of ``panlcs`` from outside the program.

The tracer replaces each listed function with a timing wrapper at every
``panlcs`` module attribute that refers to it, so a call is seen whichever
name the caller uses (``panlcs.lcs.reachability`` as well as
``panlcs.graph.reachability``).  Methods are wrapped on their class.  Spans
are kept in memory; :meth:`Tracer.uninstall` puts the original functions
back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

CountFn = Callable[[tuple, Any], dict[str, float]]


def _dag_size(args: tuple, dag: Any) -> dict[str, float]:
    return {"nodes": dag.n_nodes, "arcs": dag.n_arcs, "nodes_sq": dag.n_nodes**2}


# (span name, module, attribute path, counter over (args, return value))
TARGETS: tuple[tuple[str, str, str, CountFn | None], ...] = (
    ("cli.main", "panlcs.cli", "main", None),
    ("generate.parse_instance", "panlcs.generate", "parse_instance", None),
    ("chaining.parse_seeds", "panlcs.chaining", "parse_seeds", None),
    ("graph.reachability", "panlcs.graph", "reachability", lambda a, r: {"vertices": r.matrix.shape[0]}),
    ("graph.build_char_graph", "panlcs.graph", "build_char_graph", lambda a, r: {"char_nodes": r.node_count}),
    ("graph.char_distances", "panlcs.graph", "char_distances", None),
    ("lcs.match_points", "panlcs.lcs", "match_points", None),
    ("lcs.build_match_graph", "panlcs.lcs", "build_match_graph", _dag_size),
    ("fglcs.build_gap_match_graph", "panlcs.fglcs", "build_gap_match_graph", _dag_size),
    ("daglp.topo_sort", "panlcs.daglp", "topo_sort", None),
    (
        "daglp.longest_path_vertex",
        "panlcs.daglp",
        "longest_path_vertex",
        lambda a, r: {"nodes": a[0].n_nodes, "arcs": a[0].n_arcs},
    ),
    ("lcs.alignment_from_path", "panlcs.lcs", "alignment_from_path", None),
    ("lcs.Alignment.validate", "panlcs.lcs", "Alignment.validate", None),
    ("chaining.build_seed_graph", "panlcs.chaining", "build_seed_graph", _dag_size),
    ("chaining.Chain.validate", "panlcs.chaining", "Chain.validate", None),
    (
        "oracle.enumerate_mems",
        "panlcs.oracle",
        "enumerate_mems",
        lambda a, r: {"mems": len(r), "cells": len(a[0]) * a[1].total_label_length},
    ),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, counter: CountFn | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.request)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, path, counter in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if outer:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "panlcs":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own
