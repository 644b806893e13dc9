"""Outside-in tracing of ambiseg: wrap public functions where their names are looked up.

`Patcher` swaps a module-level function for a wrapper at every `ambiseg.*` module
attribute that holds it, so `ambiseg.network.knn_all` is wrapped together with
`ambiseg.cloud.knn_all`. `Tracer` records spans (name, start, end, parent) in
memory and turns them into per-operation layer metrics when the run ends.
Nothing under `src/` changes; the functions are restored on exit.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MODULES = ("cloud", "ambiguity", "margin", "autograd", "apm", "refine", "network",
           "metrics", "io", "cli")

# ambiseg.autograd functions that are not graph primitives.
AUTOGRAD_NON_PRIMITIVES = {"backward", "zero_grads", "finite_diff_check"}

# Name of the spans that mark excluded intervals.
EXCLUDED = "-excluded"

# Last name part of spans that split one function by phase or mode.
VARIANTS = ("fwd", "bwd", "train", "infer")

# Wrapped with a plain timing span; each entry is (module, function).
TIMED = (
    ("cloud", "fps_indices"), ("cloud", "knn_all"),
    ("network", "forward"), ("network", "loss_joint"), ("network", "predict"),
    ("autograd", "backward"),
    ("margin", "loss_am_indexed"), ("margin", "margin_map"),
    ("ambiguity", "ambiguity_map"),
    ("apm", "loss_reg"),
    ("metrics", "confusion"), ("metrics", "breakdown"), ("metrics", "scores"),
    ("io", "read_cloud"), ("io", "load_checkpoint"),
    ("cli", "main"),
)
# io writers: also count the bytes of the file named by their first argument.
WRITERS = (("io", "write_ambiguity_csv"), ("io", "write_ply"), ("io", "write_cloud"),
           ("io", "save_checkpoint"))


def module(name: str):
    # `import ambiseg.ambiguity as m` yields the re-exported *function* named
    # `ambiguity`; importlib returns the submodule itself.
    return importlib.import_module(f"ambiseg.{name}")


class Patcher:
    """Replace a function at every ambiseg module attribute bound to it; undo on restore."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, fn, wrapper) -> int:
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ambiseg" or modname.startswith("ambiseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no ambiseg module binds {fn.__module__}.{fn.__name__}")
        return hits

    def wrap(self, modname: str, fname: str, make) -> None:
        """Patch ambiseg.<modname>.<fname> with make(current function)."""
        fn = getattr(module(modname), fname)
        self.patch(fn, make(fn))

    def restore(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


class Tracer:
    """In-memory spans at ambiseg layer boundaries, plus per-span counters."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counters: list[tuple[int, str, float]] = []   # (open span, name, amount)
        self.excluded_s: dict[int, float] = defaultdict(float)   # root -> seconds in no layer
        self._stack: list[int] = []
        self._memory_measured: set = set()
        self.patcher = Patcher()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = perf_counter() if end is None else end
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def add_span(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, child of the innermost open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def exclude(self, start: float, end: float) -> None:
        """An interval inside the open spans that belongs to no layer (checks, repeats)."""
        self.add_span(EXCLUDED, start, end)
        self.excluded_s[self._stack[0] if self._stack else -1] += end - start

    def count(self, name: str, amount: float) -> None:
        self.counters.append((self._stack[-1] if self._stack else -1, name, float(amount)))

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _primitive(self, fn, name: str):
        """Time a graph primitive's forward, count it, and time the backward closure it returns."""
        tracer = self
        fwd, bwd = f"autograd.{name}.fwd", f"autograd.{name}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.count("autograd.nodes", 1)
            closure = out._backward
            if closure is not None:
                def timed_backward(g):
                    j = tracer.open(bwd)
                    try:
                        closure(g)
                    finally:
                        tracer.close(j)

                out._backward = timed_backward
            return out

        return wrapper

    def _block_forward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(z, block, mode="train", update_running=True):
            if not tracer.active:
                return fn(z, block, mode=mode, update_running=update_running)
            idx = tracer.open(f"apm.block_forward.{mode}")
            try:
                return fn(z, block, mode=mode, update_running=update_running)
            finally:
                tracer.close(idx)

        return wrapper

    def _build_geometry(self, fn):
        """Span, then once per root kind ("op", "setup") an untimed repeat of the call
        under tracemalloc for the peak of newly allocated memory. tracemalloc slows
        every allocation, so the repeat stays out of the spans and out of the op time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open("network.build_geometry")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            kind = tracer.spans[tracer._stack[0]][0] if tracer._stack else None
            if kind not in tracer._memory_measured:
                tracer._memory_measured.add(kind)
                t0 = perf_counter()
                tracer.active = False
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.active = True
                tracer.count("network.build_geometry.peak_mb", peak / 2**20)
                tracer.exclude(t0, perf_counter())
            return out

        return wrapper

    def install(self) -> None:
        mods = {name: module(name) for name in MODULES}
        for modname, fname in TIMED:
            fn = getattr(mods[modname], fname)
            self.patcher.patch(fn, self._timed(fn, f"{modname}.{fname}"))
        for modname, fname in WRITERS:
            fn = getattr(mods[modname], fname)
            self.patcher.patch(fn, self._timed(fn, f"{modname}.{fname}", after=self._count_bytes))
        fn = mods["refine"].build_masks
        self.patcher.patch(fn, self._timed(fn, "refine.build_masks", after=self._count_masks))
        self.patcher.wrap("apm", "block_forward", self._block_forward)
        self.patcher.wrap("network", "build_geometry", self._build_geometry)
        ag = mods["autograd"]
        for name, fn in vars(ag).copy().items():
            if (inspect.isfunction(fn) and fn.__module__ == ag.__name__
                    and not name.startswith("_") and name not in AUTOGRAD_NON_PRIMITIVES):
                self.patcher.patch(fn, self._primitive(fn, name))

    def restore(self) -> None:
        self.patcher.restore()

    def _count_bytes(self, out, args, kwargs) -> None:
        self.count("io.bytes_written", os.path.getsize(args[0]))

    def _count_masks(self, masks, args, kwargs) -> None:
        self.count("refine.self_mask_hits", int(masks.self_mask.sum()))
        self.count("refine.stage_points", masks.self_mask.size)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self, roots: list[int]) -> dict:
        """Per-root means of inclusive time, self time, calls and counters for every
        span name; `roots` are span indices, one per operation. Excluded intervals
        are taken out of every span that contains them."""
        spans = self.spans
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        # a child opens after its parent, so one reverse pass sums excluded time upwards
        excluded_inside = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0:
                excluded_inside[parent] += (spans[i][2] - spans[i][1] if spans[i][0] == EXCLUDED
                                            else excluded_inside[i])
        net = [end - start - excluded_inside[i] for i, (_, start, end, _) in enumerate(spans)]
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        peaks: dict[str, float] = {}
        in_root: set[int] = set()

        def kids(i: int) -> list[int]:
            return [k for k in children.get(i, ()) if spans[k][0] != EXCLUDED]

        def visit(i: int, open_names: frozenset) -> None:
            name = spans[i][0]
            in_root.add(i)
            calls[name] += 1
            self_t[name] += net[i] - sum(net[k] for k in kids(i))
            if name not in open_names:       # recursion counts once, at the outer call
                incl[name] += net[i]
            for k in kids(i):
                visit(k, open_names | {name})

        op_total = attributed = 0.0
        for r in roots:
            in_root.add(r)
            op_total += net[r]
            attributed += sum(net[k] for k in kids(r))
            for k in kids(r):
                visit(k, frozenset())
        for idx, name, amount in self.counters:
            if idx in in_root:
                if name.endswith(".peak_mb"):
                    peaks[name] = max(peaks.get(name, 0.0), amount)
                else:
                    counts[name] += amount
        n = max(len(roots), 1)
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.ms"] = 1e3 * incl[name] / n
            out[f"{name}.self_ms"] = 1e3 * self_t[name] / n
            out[f"{name}.calls"] = calls[name] / n
            base, _, variant = name.rpartition(".")
            if variant in VARIANTS:              # autograd.affine.fwd -> autograd.affine.fwd_ms
                out[f"{name}_ms"] = out[f"{name}.ms"]
                if variant == "fwd":
                    out[f"{base}.calls"] = out[f"{name}.calls"]
        for name, total in counts.items():
            out[name] = total / n
        out.update(peaks)
        # the CLI's own time counts as unattributed: it is the entry point, not a layer below it
        attributed -= self_t.get("cli.main", 0.0)
        out["trace.attributed_pct"] = 100.0 * attributed / op_total if op_total > 0 else 0.0
        return out
