"""Spans around symrank's public functions, installed from outside the package.

A :class:`Tracer` wraps each function listed in :data:`LAYERS` in every
``symrank`` module namespace that binds it (``rank_exact``, for example, is
bound in ``jacobian``, ``proofs``, ``cli`` and the package itself), records
one span per call and puts the original objects back on :meth:`restore`.
Nothing inside the package changes.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``item`` the benchmark item that was
running.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

#: Layer (defining module) -> public functions that get a span.
LAYERS = {
    "canonical": ("random_similarity", "build_jordan", "jordan_to_frobenius",
                  "min_poly_krylov"),
    "matpoly": ("char_and_adjugate", "charpoly_in_ring", "symmetrize"),
    "jacobian": ("verify_theorem", "jacobian_exact", "rank_exact",
                 "directional_derivative", "jacobian_fd", "numeric_rank_profile"),
    "proofs": ("nullspace_basis", "verify_annihilation", "tangent_construction",
               "tangent_ok", "confluent_vandermonde_det", "order_of_vanishing"),
    "cli": ("main", "run_sweep", "enumerate_jordan_specs"),
}

#: Functions whose span name gets the field of their first argument appended,
#: so that exact and float uses of one kernel are reported apart.
SPLIT_BY_FIELD = {"matpoly.char_and_adjugate": ("exact", "float")}

#: Span name -> which side of the call the bit-length counter reads.
BIT_COUNTERS = {
    "canonical.random_similarity": "out",
    "matpoly.char_and_adjugate.exact": "out",
    "jacobian.jacobian_exact": "out",
    "jacobian.rank_exact": "in",
}


def span_names() -> list:
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            label = f"{module}.{fn}"
            suffixes = SPLIT_BY_FIELD.get(label)
            names.extend([f"{label}.{s}" for s in suffixes] if suffixes else [label])
    return names


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length among exact scalars in obj.

    Walks tuples, lists and the ``entries``/``rows``/``coefficients`` of
    symrank's matrix and polynomial types; float scalars count as 0.
    """
    re = getattr(obj, "re", None)
    if re is not None and hasattr(re, "denominator"):
        im = obj.im
        return max(re.numerator.bit_length(), re.denominator.bit_length(),
                   im.numerator.bit_length(), im.denominator.bit_length())
    if isinstance(obj, (tuple, list)):
        return max((max_bits(x) for x in obj), default=0)
    for attr in ("entries", "rows", "coefficients"):
        inner = getattr(obj, attr, None)
        if inner is not None:
            return max_bits(inner)
    return 0


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.count_bits = False
        self.bits = dict.fromkeys(BIT_COUNTERS, 0)
        self._stack = []
        self._patches = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "symrank" or name.startswith("symrank."))]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"symrank.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        split = label in SPLIT_BY_FIELD
        # a generator's body runs after the call returns; materialise it so the
        # span covers the enumeration itself
        materialise = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{label}.{args[0].field}" if split else label
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if materialise:
                    out = iter(list(out))
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if self.count_bits and name in BIT_COUNTERS:
                seen = max_bits(out if BIT_COUNTERS[name] == "out" else args[0])
                if seen > self.bits[name]:
                    self.bits[name] = seen
            return out

        return wrapper

    @property
    def bindings(self) -> list:
        """(module, attribute, original) for every namespace that gets patched."""
        return [(module, attr, original) for module, attr, original, _ in self._patches]

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def aggregate(spans, scale=None) -> dict:
    """Per span name: calls, busy_s (inclusive), self_s (minus direct children)
    and ms_p50 (median inclusive duration).  `scale` maps an item to the
    factor its span times are multiplied by.  Names without spans read 0."""
    scale = scale or {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    durations = {}
    self_time = {}
    for index, (name, start, end, _, item) in enumerate(spans):
        f = scale.get(item, 1.0)
        durations.setdefault(name, []).append((end - start) * f)
        self_time[name] = self_time.get(name, 0.0) + ((end - start) - child[index]) * f
    out = {}
    for name in span_names():
        d = durations.get(name, [])
        out[name] = {
            "calls": len(d),
            "busy_s": sum(d, 0.0),
            "self_s": self_time.get(name, 0.0),
            "ms_p50": statistics.median(d) * 1e3 if d else 0.0,
        }
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called `name` that have a span called `ancestor` above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
