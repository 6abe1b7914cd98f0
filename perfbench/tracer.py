"""Outside-in tracing of qkclab's layers.

A Tracer wraps public functions of the qkclab modules and rebinds every
module-level name that refers to the original function object (``fidelity``,
for example, is bound in ``statevec``, ``estimator``, ``census`` and the
package itself), so each call records a span: name, start, end and the span
open when it began.  Nothing under ``src/`` is edited; ``uninstall`` restores
the original bindings.

Spans live in flat arrays while the run is in progress and are written out
once at the end.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Wrapped functions, in layer order; each yields <name>.calls, .self_s and
# .us_per_call.  enumerate_programs is a generator: it is timed over each
# resumption of its iteration, and .calls counts the generators created.
TIMED = (
    "statevec.apply_gate",
    "statevec.fidelity",
    "statevec.penalty_bits",
    "proglang.enumerate_programs",
    "proglang.decode",
    "executor.run",
    "executor.cached_outputs",
    "estimator.exact_estimate",
    "estimator.sampled_estimate",
    "census.incompressibility_census",
    "cli.main",
)
GENERATORS = {"proglang.enumerate_programs"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.calls: Counter = Counter()  # wrapper calls, plus derived counts
        self._fidelity_args: list = []
        self._run_results: list = []
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn, observe=None):
        """Wrap a plain function: one span per call.  `observe(args, result)`
        runs after the span has closed."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, calls, clock = self._stack, self.calls, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def timed_iter(self, name: str, fn):
        """Wrap a generator function: one span per resumption, so the time
        is spent where the iteration happens, not when the generator is made."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, calls, clock = self._stack, self.calls, time.perf_counter_ns
        items = name + ".items"

        def iterate(gen):
            try:
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    calls[items] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return iterate(fn(*args, **kwargs))

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, qualname: str, make_wrapper) -> None:
        module_name, attr = qualname.split(".")
        module = sys.modules.get(f"qkclab.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            return  # the function is gone; its metrics read zero
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qkclab" and not mod_name.startswith("qkclab."):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original, wrapper))

    def prepare(self) -> "Tracer":
        """Build the wrapper of every traced function and find its bindings."""
        observe = {
            "statevec.fidelity": lambda args, _r: self._fidelity_args.append(args),
            "proglang.decode": self._observe_decode,
            "executor.run": lambda _args, result: self._run_results.append(result),
        }
        counting = {
            "executor.cached_outputs": self._count_cache,
            "estimator.exact_estimate": self._count_candidates,
        }
        for qualname in TIMED:
            def make(fn, q=qualname):
                if q in GENERATORS:
                    return self.timed_iter(q, fn)
                wrapper = self.timed(q, fn, observe.get(q))
                return counting[q](fn, wrapper) if q in counting else wrapper

            self._patch(qualname, make)
        self._patch("estimator.projection_oracle", self._wrap_oracle)
        return self

    def install(self) -> None:
        for mod, binding, _original, wrapper in self._patches:
            setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for mod, binding, original, _wrapper in self._patches:
            setattr(mod, binding, original)

    # -- per-layer observations --------------------------------------------

    def _observe_decode(self, _args, result) -> None:
        if result is None:
            self.calls["proglang.decode.failed"] += 1

    def _count_cache(self, fn, timed):
        signature = inspect.signature(fn)
        executor = sys.modules["qkclab.executor"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            runs_before = self.calls["executor.run"]
            result = timed(*args, **kwargs)
            hit = self.calls["executor.run"] == runs_before
            self.calls["executor.cache.hits" if hit else "executor.cache.misses"] += 1
            bound = signature.bind(*args, **kwargs).arguments
            path = executor.cache_path(bound["cache_dir"], bound["n"], bound["max_len"])
            self.calls["executor.cache.bytes"] += path.stat().st_size
            return result

        return wrapper

    def _count_candidates(self, fn, timed):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls["statevec.fidelity"]
            result = timed(*args, **kwargs)
            self.calls["estimator.exact_estimate.candidates"] += (
                self.calls["statevec.fidelity"] - before
            )
            return result

        return wrapper

    def _wrap_oracle(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed("estimator.measure", fn(*args, **kwargs))

        return wrapper

    def end_op(self) -> None:
        """Fold the op's raw observations into distinct-value counts.

        Distinctness is by value (states compare exactly), counted per op."""
        self.calls["statevec.fidelity.distinct"] += len(set(self._fidelity_args))
        halted = [r.output for r in self._run_results if r.output is not None]
        self.calls["executor.run.decode_failed"] += len(self._run_results) - len(halted)
        self.calls["executor.run.distinct_outputs"] += len(set(halted))
        self._fidelity_args.clear()
        self._run_results.clear()

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Self time per span name, in seconds."""
        covered = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        total: Counter = Counter()
        for i, nid in enumerate(self.name):
            total[self.names[nid]] += self.end[i] - self.start[i] - covered[i]
        return Counter({k: v / 1e9 for k, v in total.items()})

    def write(self, path: Path, phase: str, mode: str = "wt") -> None:
        """Write (mode "wt") or append (mode "at") this tracer's spans as
        gzipped TSV: phase, index, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, mode, compresslevel=1) as fh:
            if mode == "wt":
                fh.write("phase\tindex\tparent\tname\tstart_ns\tend_ns\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{phase}\t{i}\t{self.parent[i]}\t{self.names[nid]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )
