"""Run the springerc CLI with per-layer time and counts recorded from outside.

Usage (from the repository root, with src on PYTHONPATH):

    python perfbench/traced_cli.py htop --n 2 --d 3 --format json

The package itself is unchanged.  Before `cli.main` runs, every public
function and method defined in a springerc module is replaced by a wrapper at
every module namespace that binds it (`from .exact import bareiss_rank`
binds a second name in `tensor`, which gets the same wrapper).  A layer is a
module: `exact`, `tensor`, `hyperoctahedral`, `springer`, `partitions`,
`geometry`, `verify` and `cli`.  The wrappers keep a stack of layers, and
each instant inside `cli.main` is charged to the layer on top of it, so the
self times of the layers add up to the time spent in `cli.main`.

Calls that cross from one layer into another are aggregated in memory as
spans keyed by (calling layer, callee) with a count and an inclusive time.
All of it is written once, when the command ends, as the last line of stderr:
`PERFBENCH_TRACE <json>`.  Stdout is not touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import sys
import time

MARKER = "\nPERFBENCH_TRACE "
LAYERS = (
    "partitions",
    "hyperoctahedral",
    "springer",
    "exact",
    "tensor",
    "geometry",
    "verify",
    "cli",
)
MODULES = ("springerc",) + tuple(f"springerc.{name}" for name in LAYERS + ("limits",))
# Dunder methods that do real work; the cheap ones (__eq__, __hash__, ...)
# stay unwrapped and are charged to their caller.
WORK_DUNDERS = {"__init__", "__post_init__", "__mul__", "__rmul__", "__matmul__", "__add__", "__sub__"}


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.spans: dict[tuple[str, str], list] = {}
        self.counters = {
            "exact.bareiss_entries": 0,
            "exact.check_entries": 0,
            "tensor.projector_entries": 0,
            "hyperoctahedral.character_table_s": 0.0,
            "springer.sorted_scans": 0,
        }
        self.stack = ["cli"]
        self.mark = [0.0]
        self.full_rank_depth = 0
        self.caches: dict[str, object] = {}
        self._wrapped: dict[int, object] = {}
        self._classes: set[type] = set()

    # -- span bookkeeping -------------------------------------------------

    def _span_wrapper(self, fn, layer: str, key: str):
        calls, stack, self_s, spans, mark = (
            self.calls, self.stack, self.self_s, self.spans, self.mark
        )
        clock = time.perf_counter
        calls[key] = 0

        def traced(*args, **kwargs):
            calls[key] += 1
            caller = stack[-1]
            if caller == layer:
                return fn(*args, **kwargs)
            start = clock()
            self_s[caller] += start - mark[0]
            stack.append(layer)
            mark[0] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - mark[0]
                stack.pop()
                mark[0] = end
                span = spans.setdefault((caller, key), [0, 0.0])
                span[0] += 1
                span[1] += end - start

        return functools.update_wrapper(traced, fn)

    def _generator_wrapper(self, fn, layer: str, key: str):
        """Charge each step of a generator to its layer, not to the consumer."""
        step = self._span_wrapper(next, layer, key + ".next")
        calls = self.calls
        calls[key] = calls[key + ".yield"] = 0

        def traced(*args, **kwargs):
            calls[key] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                calls[key + ".yield"] += 1
                yield item

        return functools.update_wrapper(traced, fn)

    # -- counters that need the arguments ---------------------------------

    def _counting(self, key: str, fn):
        """Wrap fn (before the span wrapper) with the counter kept for key."""
        tracer = self
        counters = self.counters
        if key == "exact.bareiss_rank":

            def counted(grid):
                entries = len(grid) * len(grid[0]) if grid else 0
                counters["exact.bareiss_entries"] += entries
                if tracer.full_rank_depth:
                    counters["exact.check_entries"] += entries
                return fn(grid)

        elif key == "tensor.projector_rank":

            def counted(*args, **kwargs):
                tracer.full_rank_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.full_rank_depth -= 1

        elif key == "tensor._projector_int":
            info = fn.cache_info

            def counted(rho, n, d, convention):
                misses = info().misses
                result = fn(rho, n, d, convention)
                if info().misses > misses:
                    counters["tensor.projector_entries"] += (2 * n + 1) ** (2 * d)
                return result

        elif key == "hyperoctahedral.character_table":

            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counters["hyperoctahedral.character_table_s"] += time.perf_counter() - start

        else:
            return fn
        return functools.update_wrapper(counted, fn)

    # -- installation -----------------------------------------------------

    def _wrap_function(self, fn, layer: str, name: str):
        if id(fn) not in self._wrapped:
            key = f"{layer}.{name}"
            inner = self._counting(key, fn)
            if inspect.isgeneratorfunction(fn):
                self._wrapped[id(fn)] = self._generator_wrapper(inner, layer, key)
            else:
                self._wrapped[id(fn)] = self._span_wrapper(inner, layer, key)
        return self._wrapped[id(fn)]

    def _wrap_class(self, cls: type, layer: str) -> None:
        if cls in self._classes:
            return
        self._classes.add(cls)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WORK_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap_function(value, layer, name))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._wrap_function(value.__func__, layer, name)
                setattr(cls, attr, type(value)(wrapped))

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if hasattr(obj, "cache_info") and callable(obj):
                    self.caches.setdefault(obj.__name__, obj)
                package, _, layer = str(getattr(obj, "__module__", "")).rpartition(".")
                if package != "springerc" or layer not in LAYERS:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj) and (not name.startswith("_") or name == "_projector_int"):
                    setattr(module, name, self._wrap_function(obj, layer, obj.__name__))
        logging.getLogger("springerc.springer").addFilter(self._count_sorted_scan)

    def _count_sorted_scan(self, record: logging.LogRecord) -> bool:
        if "needed sorting" in record.msg:
            self.counters["springer.sorted_scans"] += 1
        return True

    # -- running ----------------------------------------------------------

    def run(self, main, argv) -> tuple[int, float]:
        start = time.perf_counter()
        self.mark[0] = start
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        finally:
            end = time.perf_counter()
            self.self_s[self.stack[-1]] += end - self.mark[0]
        return status, end - start

    def report(self, main_s: float) -> dict:
        return {
            "main_s": main_s,
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
            "caches": {
                name: fn.cache_info()._asdict() for name, fn in sorted(self.caches.items())
            },
            "spans": [
                {"caller": caller, "callee": callee, "count": count, "inclusive_s": total}
                for (caller, callee), (count, total) in sorted(self.spans.items())
            ],
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["springerc.cli"]
    status, main_s = tracer.run(cli.main, argv)
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(tracer.report(main_s)) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
