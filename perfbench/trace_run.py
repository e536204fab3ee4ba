#!/usr/bin/env python3
"""Run kextend CLI commands in process, optionally traced per layer.

    python3 perfbench/trace_run.py plain|traced SPANS_FILE '[["verify", ...], ...]'

Runs each argument list through ``kextend.cli.main`` in this process with
stdout and stderr captured, and prints one JSON object with the wall time
and every captured output.  In ``traced`` mode the public functions of each
layer are wrapped before the first command: every call records a span
(name, parent span, start, end) in memory.  After the last command the spans
are written to SPANS_FILE and folded into calls and self time per function,
where self time is a span's duration minus the durations of its child spans.

Spans sit at layer boundaries.  A function is wrapped in every other
``kextend`` module that binds it by name (``verifier``, ``cli`` and
``extendibility`` import layer functions that way), so every call from
another layer is caught, while calls inside its own module, such as
``is_k_connected`` calling ``vertex_connectivity``, stay in the caller's
self time.  The harness steps in ``OWN_MODULE`` are called from their own
module, so they are wrapped there too.  A generator function gets one
span per resume, so its self time excludes the caller's work between
yields.  ``KEXTEND_WORKERS`` must be 1: spans are not collected from pool
workers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

# layer module -> public functions wrapped in the traced run
LAYER_FUNCTIONS = {
    "graphs": ("from_edges", "to_graph6", "parse_graph6", "is_connected",
               "bipartition"),
    "matching": ("extends_to_perfect", "enumerate_matchings",
                 "has_perfect_matching", "matching_number",
                 "koenig_ore_deficiency"),
    "extendibility": ("is_k_extendible", "extendibility_number",
                      "hall_surplus_check", "peel"),
    "connectivity": ("is_k_connected", "vertex_connectivity"),
    "oracles": ("brute_force_deficiency",),
    "jsonio": ("certificate_json",),
    "verifier": ("random_graph",),
    "cli": ("analysis_record",),
}
# root spans: their self time is the harness around the layers
ROOT_SPANS = {("cli", "main"): "cli", ("verifier", "run_corpus"): "verifier"}
# wrapped in their defining module as well: their callers live there
OWN_MODULE = {"verifier.random_graph", "cli.analysis_record", "cli"}
# functions whose non-None results count as useful outcomes
COUNT_RESULTS = {"matching.extends_to_perfect"}


class Tracer:
    """Spans kept in parallel arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.results: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.results.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        calls, results, stack = self.calls, self.results, self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        count_results = name in COUNT_RESULTS

        def enter() -> int:
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def leave(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[nid] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            leave(index)
                        results[nid] += 1
                        yield item
                finally:
                    inner.close()
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            index = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if count_results and result is not None:
                results[nid] += 1
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever a kextend module binds it."""
        targets = [(layer, fn, f"{layer}.{fn}")
                   for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]
        targets += [(layer, fn, name)
                    for (layer, fn), name in ROOT_SPANS.items()]
        modules = [m for key, m in sys.modules.items()
                   if key == "kextend" or key.startswith("kextend.")]
        for layer, fn, name in targets:
            home = importlib.import_module(f"kextend.{layer}")
            original = getattr(home, fn, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                if module is home and name not in OWN_MODULE:
                    continue
                for attr in [a for a, v in vars(module).items()
                             if v is original]:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict[str, float]:
        """Calls and self time per wrapped function, from the spans."""
        count = len(self.span_start)
        child = [0.0] * count
        self_s = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        # children start after their parent, so a reverse pass sees every
        # child before its parent
        for i in range(count - 1, -1, -1):
            duration = ends[i] - starts[i]
            self_s[names[i]] += duration - child[i]
            if parents[i] >= 0:
                child[parents[i]] += duration
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name in ROOT_SPANS.values():
                out[f"{name}.self_s"] = self_s[nid]
                continue
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        ids = {name: nid for nid, name in enumerate(self.names)}
        ext = ids.get("matching.extends_to_perfect")
        if ext is not None and self.calls[ext]:
            out["matching.extends_to_perfect.success_ratio"] = \
                self.results[ext] / self.calls[ext]
        enum = ids.get("matching.enumerate_matchings")
        if enum is not None:
            out["matching.enumerate_matchings.yielded"] = self.results[enum]
        return out

    def write(self, path: Path) -> None:
        """Header line (JSON), then the span arrays in header order."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [["name", "i"], ["parent", "i"],
                             ["start_s", "d"], ["end_s", "d"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(handle)


def cache_info() -> tuple[int, int]:
    """(hits, misses) of the certificate cache, if the program has one."""
    from kextend import extendibility
    info = getattr(getattr(extendibility, "_certificate", None),
                   "cache_info", None)
    if info is None:
        return 0, 0
    current = info()
    return current.hits, current.misses


def main(argv: list[str]) -> int:
    mode, spans_path, spec = argv
    if os.environ.get("KEXTEND_WORKERS") != "1":
        print("trace_run: KEXTEND_WORKERS must be 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from kextend import cli

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    hits0, misses0 = cache_info()
    outputs: list[dict[str, Any]] = []
    start = time.perf_counter()
    for command in json.loads(spec):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(command)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # a crash is one failed command, as it is for the CLI
                traceback.print_exc()
                code = 1
        outputs.append({"returncode": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    wall = time.perf_counter() - start
    result: dict[str, Any] = {"wall_s": wall, "outputs": outputs}
    if tracer is not None:
        hits, misses = cache_info()
        hits, misses = hits - hits0, misses - misses0
        layers = tracer.summary()
        layers["extendibility.cert_cache.misses"] = misses
        layers["extendibility.cert_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        tracer.write(Path(spans_path))
        result.update(layers=layers, span_count=len(tracer.span_start),
                      missing=tracer.missing)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
