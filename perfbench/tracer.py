"""Outside-in span tracer for hurstab, installed from the benchmark only.

``install()`` wraps the public functions of each layer and rebinds every
module-level name in the ``hurstab`` package that refers to the original
function, so calls through a by-name import (``homology`` imports
``smith_normal_form`` from ``intmat``; ``cli`` and ``experiments`` import
``orbits`` from ``braid``) are traced as well as calls through the defining
module.  Spans are kept in memory and written out once with ``dump``.

Span timestamps come from a clock that stops while the tracer does its own
bookkeeping (counting matrix entries, bit lengths, chain sizes), so that
work is not charged to any layer; it still shows in the traced solve's wall
time, which is what ``bench.trace_overhead_frac`` compares.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _count_specialize(counters, args, kwargs, result):
    from hurstab import intmat

    counters["resolution.chain_dim"] += sum(result.dims)
    counters["resolution.chain_nnz"] += sum(
        intmat.sparse_nnz(rows) for rows in result.mats.values()
    )


def _count_snf(counters, args, kwargs, result):
    counters["intmat.smith_normal_form.entries"] += result.m * result.n
    bits = max(
        (abs(x).bit_length() for mat in (result.U, result.uinv)
         for row in mat for x in row),
        default=0,
    )
    if bits > counters["intmat.smith_normal_form.max_bits"]:
        counters["intmat.smith_normal_form.max_bits"] = bits


def _count_orbits(counters, args, kwargs, result):
    counters["braid.orbits.tuples"] += sum(result.sizes)


def _count_cache_get(counters, args, kwargs, result):
    counters["cli.cache.gets"] += 1
    counters["cli.cache.hits"] += result is not None


# (module, attribute, bookkeeping run after each call or None)
FUNCTIONS = [
    ("hurstab.cli", "render_json", None),
    ("hurstab.cli", "_tsv_from_report_json", None),
    ("hurstab.cli", "emit", None),
    ("hurstab.experiments", "stability_table", None),
    ("hurstab.resolution", "salvetti_complex", None),
    ("hurstab.resolution", "specialize", _count_specialize),
    ("hurstab.resolution", "stabilisation_chain_map", None),
    ("hurstab.garside", "form_from_positive_permutation", None),
    ("hurstab.homology", "homology", None),
    ("hurstab.homology", "induced_map", None),
    ("hurstab.homology", "map_is_injective", None),
    ("hurstab.homology", "map_is_surjective", None),
    ("hurstab.homology", "is_split_injective", None),
    ("hurstab.intmat", "smith_normal_form", _count_snf),
    ("hurstab.intmat", "solve_int", None),
    ("hurstab.intmat", "sparse_invariant_factors", None),
    ("hurstab.intmat", "field_rref", None),
    ("hurstab.intmat", "field_solve_in_rowspace", None),
    ("hurstab.braid", "orbits", _count_orbits),
    ("hurstab.coeffsys", "build_hurwitz_system", None),
    ("hurstab.coeffsys", "delta", None),
    ("hurstab.monodromy", "compose", None),
    ("hurstab.monodromy", "act", None),
]

# (module, class, method, bookkeeping or None)
METHODS = [
    ("hurstab.cli", "ResultCache", "get", _count_cache_get),
    ("hurstab.cli", "ResultCache", "put", None),
]


def span_name(module, *attrs):
    return ".".join([module.rsplit(".", 1)[-1], *attrs])


SPAN_NAMES = {span_name(m, a) for m, a, _ in FUNCTIONS} | {
    span_name(m, c, a) for m, c, a, _ in METHODS}


class Tracer:
    """In-memory spans (name, start, end, parent) plus counters."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = []
        self.counters = {}
        self.excluded = 0.0
        self.origin = perf_counter()
        self.patched = []  # (owner, attribute, original)

    def clock(self):
        return perf_counter() - self.excluded - self.origin

    def open(self, name_id):
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(None)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn, bookkeeping=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if bookkeeping is not None:
                t = perf_counter()
                bookkeeping(counters, args, kwargs, result)
                self.excluded += perf_counter() - t
            return result

        return traced

    def install(self):
        """Wrap every target and rebind every lookup site in hurstab."""
        for mod_name, attr, bookkeeping in FUNCTIONS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            wrapper = self.wrap(span_name(mod_name, attr), original, bookkeeping)
            for site in [m for n, m in list(sys.modules.items())
                         if n == "hurstab" or n.startswith("hurstab.")]:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self.patched.append((site, key, original))
                        setattr(site, key, wrapper)
        for mod_name, cls_name, meth, bookkeeping in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[meth]
            self.patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(span_name(mod_name, cls_name, meth),
                                         original, bookkeeping))
        for key in ("resolution.chain_dim", "resolution.chain_nnz",
                    "intmat.smith_normal_form.entries",
                    "intmat.smith_normal_form.max_bits",
                    "braid.orbits.tuples", "cli.cache.gets", "cli.cache.hits"):
            self.counters[key] = 0
        return self

    def uninstall(self):
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched.clear()

    def to_json(self):
        return {
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": self.counters,
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def summarize(doc):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so
    a recursive layer is not counted twice.  Self time is a span's duration
    minus the durations of its direct children; spans of one process never
    overlap, so that is the part of its interval no child covers.
    """
    names, name_of = doc["names"], doc["span_name"]
    start, end, parent = doc["start"], doc["end"], doc["parent"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child_sum = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_sum[parent[i]] += dur[i]
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i in range(n):
        entry = stats[names[name_of[i]]]
        entry["calls"] += 1
        entry["self_s"] += dur[i] - child_sum[i]
        p = parent[i]
        while p >= 0 and name_of[p] != name_of[i]:
            p = parent[p]
        if p < 0:
            entry["s"] += dur[i]
    return stats
