"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces the names that caller modules bind (for example
``dlrepair.repair.eval_member``, the name ``repair`` calls for each
candidate) with timing wrappers, and ``restore`` puts the original objects
back.  Nothing in ``dlrepair`` is edited: the wrappers exist only while a
traced run is in progress.

Spans are kept in memory as ``(name, start, end, parent, request)`` and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are sequential, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, layer).  A span name is "<caller>.<callee>"
# for a function bound into a caller module, "<module>.<function>" for a
# function looked up in its own module's globals.
WRAPPED_FUNCTIONS = (
    ("dlrepair.cli", "parse_program", "cli.parse_program", "parser"),
    ("dlrepair.cli", "parse_instance", "cli.parse_instance", "parser"),
    ("dlrepair.cli", "parse_tuple", "cli.parse_tuple", "parser"),
    ("dlrepair.repair", "classify", "repair.classify", "classify"),
    ("dlrepair.engine", "classify", "engine.classify", "classify"),
    ("dlrepair.cli", "eval_member", "cli.eval_member", "engine"),
    ("dlrepair.repair", "eval_member", "repair.eval_member", "engine"),
    ("dlrepair.engine", "eval_datalog", "engine.eval_datalog", "engine"),
    ("dlrepair.repair", "ma_min", "repair.ma_min", "repair"),
)
# Generator functions: only their calls are counted, because their work
# happens while the caller iterates, inside the caller's span.
COUNTED_FUNCTIONS = (("dlrepair.engine", "rule_solutions", "engine.rule_solutions"),)
# Classmethods of repair.SearchDomain.
DOMAIN_BUILDERS = ("for_ucq", "for_positive_datalog", "for_spdatalog")

REQUEST = "cli.run"
LAYERS = ("cli", "parser", "classify", "engine", "repair")


class Tracer:
    """Collects spans and counts while installed; see module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.layer_of: dict[str, str] = {REQUEST: "cli"}
        self.counts: dict[str, int] = defaultdict(int)
        self.domain_sizes: list[int] = []
        self.tuples_derived = 0
        self.facts_parsed = 0
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._request))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._request)

    def request(self, fn, *args):
        """Run one request as the root span; requests are numbered from 0."""
        self._request += 1
        return self._span(REQUEST, fn, *args)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            result = self._span(name, fn, *args, **kwargs)
            if name == "engine.eval_datalog":
                self.tuples_derived += sum(len(a.tuples) for a in result.values())
            elif name == "cli.parse_instance":
                self.facts_parsed += len(result.facts)
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_domain(self, name: str, func):
        def wrapper(cls, *args, **kwargs):
            self.counts[name] += 1
            domain = self._span(name, func, cls, *args, **kwargs)
            self.domain_sizes.append(len(domain.constants))
            return domain

        return classmethod(functools.wraps(func)(wrapper))

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, layer in WRAPPED_FUNCTIONS:
            module = importlib.import_module(module_name)
            self.layer_of[name] = layer
            self._replace(module, attr, self._wrap(name, getattr(module, attr)))
        for module_name, attr, name in COUNTED_FUNCTIONS:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self._count(name, getattr(module, attr)))
        domain_cls = importlib.import_module("dlrepair.repair").SearchDomain
        for attr in DOMAIN_BUILDERS:
            name = f"repair.SearchDomain.{attr}"
            self.layer_of[name] = "repair"
            self._replace(domain_cls, attr, self._wrap_domain(name, domain_cls.__dict__[attr].__func__))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            out[name] += end - start - children
        return out

    def total_times(self) -> dict[str, float]:
        """Inclusive time summed per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            out[self.layer_of[name]] += seconds
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated ``index name start end parent request``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")
