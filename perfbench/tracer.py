"""Spans around the detcodes layers, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
the lazily built ``Field`` tables, then replaces every reference to each
original in every package module: the kernels are imported by name into
several modules, so patching ``_kernels`` alone would miss most calls.
It then asks the garbage collector for anything still pointing at an
original and refuses to trace if an alias was missed.

Each span records its name, start, end, parent and job.  Scalar field
arithmetic (``Field.add``/``mul``) is never wrapped: it runs millions of
times and is a method, not a module function.  A tracer built with
``memory=True`` also records the peak allocation of three functions under
tracemalloc, which runs only while one of them is open; its times are
inflated by tracemalloc, so the timing metrics come from a tracer without.

Metric names use ``kernels`` for the ``_kernels`` module, because a
benchmark metric name must start with a letter.
"""

from __future__ import annotations

import functools
import gc
import inspect
import statistics
import time
import tracemalloc
import types
from math import prod

import numpy as np

LAYERS = ("gf", "matq", "_kernels", "detcode", "formulas", "counting", "rank1", "cli")
CACHED_PROPERTIES = (("gf", "Field", "tables"), ("gf", "Field", "prime_rep"))
MEMORY = ("matq.enumerate_matrices", "_kernels.rank_batch", "detcode.naive_weight_enumerator")


def _mul_adds(a, result):
    """x*k*y scalar multiply-adds per product, times any batch dimensions."""
    x, k = np.shape(a["A"])
    *batch, _, y = np.shape(a["B"])
    return {"mul_adds": prod(batch) * x * k * y}


class Span:
    __slots__ = ("name", "parent", "job", "start", "end", "child_s", "attrs", "peak")

    def __init__(self, name, parent, job):
        self.name, self.parent, self.job = name, parent, job
        self.child_s = 0.0
        self.attrs = {}
        self.peak = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def inside(self, prefix: str) -> bool:
        """True if an enclosing span's name starts with ``prefix``."""
        p = self.parent
        while p is not None:
            if p.name.startswith(prefix):
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self, package, memory: bool = False):
        self.package = package
        self.memory = memory
        self.on = False
        self.job = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._mem: list[list[int]] = []  # [traced bytes at entry, peak seen]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._attrs = {
            "_kernels.rank_batch": lambda a, r: {"n": len(a["mats"]), "ext": a["field"].e > 1},
            "_kernels.gf_matmul": _mul_adds,
            "_kernels.gf_matmul_batch": _mul_adds,
            "matq.all_matrices": lambda a, r: {"bytes": r.nbytes},
            "matq.enumerate_matrices": lambda a, r: {"points": len(r)},
            "matq.subspace_batches": lambda a, r: {"n": len(r)},
            "detcode.naive_weight_enumerator": lambda a, r: {
                "forms": a["field"].q ** (a["l"] * a["m"])
            },
            "detcode.brute_ghw": lambda a, r: {
                "space": self._originals["counting.gaussian_binomial"](
                    a["l"] * a["m"], a["r"], a["field"].q
                )
            },
        }

    # -- spans --

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.job)
        if self.memory and name in MEMORY:
            self._mem_enter()
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur
        if self.memory and span.name in MEMORY:
            span.peak = self._mem_exit()

    def _mem_enter(self) -> None:
        if not self._mem:
            tracemalloc.start()
            self._mem.append([0, 0])
            return
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self) -> int:
        base, seen = self._mem.pop()
        seen = max(seen, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], seen)
        else:
            tracemalloc.stop()
        return seen - base

    # -- wrapping --

    def _wrap(self, name: str, fn):
        tracer = self
        attrs = self._attrs.get(name)
        sig = inspect.signature(fn) if attrs else None

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name) if tracer.on else None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            tracer._close(span)
                    if span is not None and attrs:
                        span.attrs = attrs(None, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs:
                span.attrs = attrs(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _targets(self):
        """(label, original) for every public function of the layers."""
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    yield f"{layer}.{name}", obj

    def install(self, modules, holders=()) -> None:
        """Wrap the layers; ``holders`` are the caller's own containers that
        may keep references to the originals (such as a table of caches)."""
        wrappers = {}
        for label, fn in self._targets():
            self._originals[label] = fn
            wrappers[id(fn)] = self._wrap(label, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        for layer, cls_name, attr in CACHED_PROPERTIES:
            cls = getattr(getattr(self.package, layer), cls_name)
            orig = vars(cls)[attr]
            prop = functools.cached_property(self._wrap(f"{layer}.{cls_name}.{attr}", orig.func))
            prop.__set_name__(cls, attr)
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, prop)
        self._check_no_alias_left(wrappers, holders)

    def _check_no_alias_left(self, wrappers, holders) -> None:
        allowed = {id(self._originals), *map(id, self._patched), *map(id, holders)}
        for w in wrappers.values():
            allowed.add(id(w.__dict__))
            allowed.update(map(id, w.__closure__ or ()))
        gc.collect()
        for label in list(self._originals):
            for ref in gc.get_referrers(self._originals[label]):
                if id(ref) not in allowed and not isinstance(ref, types.FrameType):
                    raise RuntimeError(
                        f"tracer missed a reference to {label} in a {type(ref).__name__}"
                    )

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()
        self._originals.clear()


# -- per-layer metrics --


def _sum(spans, key):
    return sum(s.attrs.get(key, 0) for s in spans)


def _ratio(num, den):
    return num / den if den else 0.0


def _by_name(spans):
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    return by


def memory_metrics(spans: list[Span]) -> dict[str, float]:
    """Peak allocation (MB) per function, from a ``memory=True`` pass."""
    by = _by_name(spans)
    return {
        f"{name.lstrip('_')}.peak_alloc_mb": max((s.peak for s in by.get(name, [])), default=0) / 2**20
        for name in MEMORY
    }


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer timings and counts of one traced pass over a workload's jobs."""
    by = _by_name(spans)

    def of(name):
        return by.get(name, [])

    def total(name):
        return sum(s.dur for s in of(name))

    def self_total(name):
        return sum(s.self_s for s in of(name))

    def under(name, child):
        """Spans named ``child`` nested anywhere below a ``name`` span."""
        return [s for s in of(child) if s.inside(name)]

    out: dict[str, float] = {}
    rank = of("_kernels.rank_batch")
    for kind, ext in (("prime", False), ("ext", True)):
        sel = [s for s in rank if s.attrs.get("ext") is ext]
        secs = sum(s.dur for s in sel)
        out[f"kernels.rank_batch.s.{kind}"] = secs
        out[f"kernels.rank_batch.mat_per_s.{kind}"] = _ratio(_sum(sel, "n"), secs)
    out["kernels.rank_batch.matrices"] = _sum(rank, "n")
    out["kernels.rank_batch.calls"] = len(rank)
    out["kernels.rank_batch.mean_batch"] = _ratio(_sum(rank, "n"), len(rank))
    for fn in ("gf_matmul", "gf_matmul_batch"):
        out[f"kernels.{fn}.s"] = total(f"_kernels.{fn}")
        out[f"kernels.{fn}.mul_adds"] = _sum(of(f"_kernels.{fn}"), "mul_adds")

    out["matq.all_matrices.s"] = total("matq.all_matrices")
    out["matq.all_matrices.bytes"] = _sum(of("matq.all_matrices"), "bytes")
    points = _sum(of("matq.enumerate_matrices"), "points")
    ranked = _sum(under("matq.enumerate_matrices", "_kernels.rank_batch"), "n")
    out["matq.enumerate_matrices.self_s"] = self_total("matq.enumerate_matrices")
    out["matq.enumerate_matrices.points"] = points
    out["matq.enumerate_matrices.useful_ratio"] = _ratio(points, ranked)
    out["matq.subspace_batches.s"] = total("matq.subspace_batches")
    out["matq.subspace_batches.subspaces"] = _sum(of("matq.subspace_batches"), "n")

    visited = _sum(under("detcode.brute_ghw", "matq.subspace_batches"), "n")
    out["detcode.brute_ghw.self_s"] = self_total("detcode.brute_ghw")
    out["detcode.brute_ghw.subspaces"] = visited
    out["detcode.brute_ghw.visited_ratio"] = _ratio(visited, _sum(of("detcode.brute_ghw"), "space"))
    out["rank1.max_rank1_exhaustive.self_s"] = self_total("rank1.max_rank1_exhaustive")
    out["rank1.max_rank1_exhaustive.subspaces"] = _sum(
        under("rank1.max_rank1_exhaustive", "matq.subspace_batches"), "n"
    )
    out["detcode.naive_weight_enumerator.self_s"] = self_total("detcode.naive_weight_enumerator")
    out["detcode.naive_weight_enumerator.forms"] = _sum(of("detcode.naive_weight_enumerator"), "forms")
    for fn in ("make_domain", "weight_table", "support_weight"):
        out[f"detcode.{fn}.s"] = total(f"detcode.{fn}")

    out["formulas.s"] = sum(
        s.dur for s in spans if s.name.startswith("formulas.") and not s.inside("formulas.")
    )
    out["counting.gaussian_binomial.calls"] = len(of("counting.gaussian_binomial"))
    out["gf.make_field.s"] = sum(
        s.dur for s in spans if s.name.startswith("gf.") and not s.inside("gf.")
    )
    out["cli.self_s"] = sum(s.self_s for s in spans if s.name.startswith("cli."))
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
