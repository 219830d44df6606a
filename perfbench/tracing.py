"""Span recording around typeseq's public functions, installed from outside.

``Tracer.install()`` replaces each traced function by a timing wrapper in
every ``typeseq`` module namespace that bound it (``census`` and
``classification`` import ``colon``, ``dual`` and others by name, so
patching the defining module alone would miss their calls), and patches
``RelativeIdeal.is_subset_of`` on the class.  Each call appends one span
(name, start, end, parent) to flat arrays kept in memory; ``summary()``
derives calls, total and self time per function, and ``write()`` dumps the
raw spans at the end of the run.

Spans are recorded only in the process that installed the tracer; pool
workers forked by a parallel census inherit the wrappers but their spans
are never collected.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# Traced public functions per layer (module).  ``census.enumerate_semigroups``
# is a generator, so a wrapper would time only its creation; the tree walk is
# measured by a separate probe instead.
LAYERS = {
    "semigroup": ("from_generators", "from_small_elements", "oversemigroups"),
    "ideals": (
        "colon",
        "dual",
        "bidual",
        "ideal_product",
        "ideal_union",
        "ideal_intersection",
        "length_between",
        "canonical_ideal",
        "dedekind_different",
        "ideal_from_generators",
    ),
    "invariants": (
        "type_sequence",
        "extended_type_sequence",
        "ab_invariants",
        "d_invariant",
        "decomposition_check",
        "overring_check",
        "sigma",
    ),
    "classification": ("ring_classification", "window_profile", "classify_b"),
    "census": ("verify_theorems", "classification_census", "enumerate_ideals"),
    "cli": ("main",),
}

# lru_cache'd functions whose hit ratio is read from cache_info() deltas.
CACHED = ("ideals.canonical_ideal", "invariants.type_sequence")

MODULES = ("typeseq",) + tuple("typeseq." + layer for layer in LAYERS)


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.current = -1
        self.colon_window_bits = 0
        self.ideals_enumerated = 0
        self._cache_before: dict[str, tuple[int, int]] = {}
        self._cached_fns: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        k = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_ix, start, end, parent = self.name_ix, self.start, self.end, self.parent
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(k)
            parent.append(tracer.current)
            end.append(0.0)
            tracer.current = i
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                tracer.current = parent[i]

        return traced

    def install(self) -> None:
        """Patch every traced function in every typeseq namespace."""
        mods = {m: importlib.import_module(m) for m in MODULES}
        wrappers = {}
        for layer, names in LAYERS.items():
            home = mods["typeseq." + layer]
            for fname in names:
                fn = getattr(home, fname)
                qual = f"{layer}.{fname}"
                wrapped = self._wrap(qual, fn)
                if qual == "ideals.colon":
                    wrapped = self._count_window(wrapped)
                elif qual == "census.enumerate_ideals":
                    wrapped = self._count_ideals(wrapped)
                wrappers[id(fn)] = wrapped
                if qual in CACHED:
                    self._cached_fns[qual] = fn
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        ideal = mods["typeseq.ideals"].RelativeIdeal
        ideal.is_subset_of = self._wrap("ideals.is_subset_of", ideal.is_subset_of)
        for qual, fn in self._cached_fns.items():
            info = fn.cache_info()
            self._cache_before[qual] = (info.hits, info.misses)

    def _count_window(self, wrapped):
        """colon's z-loop runs over conductor(A) - min(A) candidates."""

        @functools.wraps(wrapped)
        def counted(A, B, *rest):
            self.colon_window_bits += A.conductor - A.min_element
            return wrapped(A, B, *rest)

        return counted

    def _count_ideals(self, wrapped):
        @functools.wraps(wrapped)
        def counted(*args, **kwargs):
            found = wrapped(*args, **kwargs)
            self.ideals_enumerated += len(found)
            return found

        return counted

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self seconds, plus derived ratios."""
        name_ix, start, end, parent = self.name_ix, self.start, self.end, self.parent
        n = len(start)
        child = array("d", bytes(8 * n))  # time covered by each span's children
        colon_k = self.names.index("ideals.colon")
        dual_k = self.names.index("ideals.dual")
        dual_missed = set()
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                if name_ix[i] == colon_k and name_ix[p] == dual_k:
                    dual_missed.add(p)
        k_names = len(self.names)
        calls, total, own = [0] * k_names, [0.0] * k_names, [0.0] * k_names
        for i in range(n):
            k = name_ix[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        per = {
            name: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
            for k, name in enumerate(self.names)
        }
        dual_calls = per["ideals.dual"]["calls"]
        per["ideals.dual"]["hit_ratio"] = (
            (dual_calls - len(dual_missed)) / dual_calls if dual_calls else 0.0
        )
        per["ideals.colon"]["window_bits"] = self.colon_window_bits
        per["census.enumerate_ideals"]["ideals"] = self.ideals_enumerated
        for qual, fn in self._cached_fns.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_before[qual]
            hits, misses = info.hits - hits0, info.misses - misses0
            per[qual]["hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return per

    def write(self, path) -> None:
        """Raw spans: a JSON header line, then the four arrays in order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_ix:uint16", "start:f64", "end:f64", "parent:int32"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ix, self.start, self.end, self.parent):
                arr.tofile(fh)
