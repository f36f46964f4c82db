"""Span recording around socialmatch's module-level functions.

The tracer replaces each traced function in every socialmatch module
namespace that binds it.  Python resolves module globals at call time, so
calls made inside the package go through the wrappers too.  Spans stay in
memory as one call tree per operation, aggregated by call path (calls,
total time, self time), and are written out when the run ends.  Generator
functions are not timed: their wrappers count the items they yield, and
the time spent producing them falls to the consumer.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Callable, Optional

LAYERS = ("instance", "matching", "oracle", "dynamics", "roommates", "ccg", "cli")

# Per-element helpers whose wrapper would cost more than their body; their
# time stays with the calling function, which is in the same layer.
UNTRACED = {
    "instance.normalize_edge",
    "matching._stake",
    "roommates.preference_key",
    "roommates._keys",
    "dynamics._kind",
}

MARK = "__perfbench_span__"


class Node:
    __slots__ = ("name", "calls", "total", "own", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.children: dict[str, Node] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, path: tuple[str, ...] = ()):
        """Yield (ancestor names, node) for every node below this one."""
        for node in self.children.values():
            yield path, node
            yield from node.walk(path + (node.name,))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.own,
            "children": [c.to_dict() for c in self.children.values()],
        }


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "socialmatch" or name.startswith("socialmatch.")]


def traced_functions() -> dict[str, Callable]:
    """Qualified name -> function, for every traced module-level function of each layer."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"socialmatch.{layer}"]
        for attr, value in vars(module).items():
            qual = f"{layer}.{attr}"
            if inspect.isfunction(value) and value.__module__ == module.__name__ and qual not in UNTRACED:
                out[qual] = value
    return out


def wrapped_attributes() -> list[str]:
    """Names of socialmatch attributes that still hold a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in package_modules()
        for attr, value in vars(m).items()
        if getattr(value, MARK, None) is not None
    ]


class Tracer:
    """Records one call tree per operation while installed."""

    def __init__(self, hooks: Optional[dict[str, Callable]] = None) -> None:
        self.hooks = hooks or {}
        self.counts: Counter = Counter()
        self.ops: list[tuple[int, float, float, Node]] = []  # (op index, start, end, tree)
        self._base = Node("idle")
        self._stack: list[list] = [[self._base, 0.0]]
        self._saved: list[tuple[object, str, Callable]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = traced_functions()
        by_id = {id(fn): (qual, fn) for qual, fn in targets.items()}
        wrappers: dict[int, Callable] = {}
        try:
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    hit = by_id.get(id(value))
                    if hit is None:
                        continue
                    qual, fn = hit
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(qual, fn)
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(fn)])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            counts = self.counts
            key = f"{qual}.yields"

            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item

            setattr(gen_wrapper, MARK, qual)
            return gen_wrapper

        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(qual)

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0].child(qual), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                node = frame[0]
                node.calls += 1
                node.total += dt
                node.own += dt - frame[1]
            if hook is not None:
                hook(self.counts, result)
            return result

        wrapper.__name__ = fn.__name__
        setattr(wrapper, MARK, qual)
        return wrapper

    # -- operations ---------------------------------------------------------

    def run_op(self, index: int, call: Callable):
        """Run one operation as a root span; return its result."""
        root = Node("op")
        frame = [root, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            root.calls = 1
            root.total = t1 - t0
            root.own = root.total - frame[1]
            self.ops.append((index, t0, t1, root))

    # -- summaries ------------------------------------------------------------

    def by_function(self) -> dict[str, list]:
        """Qualified name -> [calls, self seconds], over every operation."""
        out: dict[str, list] = {}
        for _, _, _, root in self.ops:
            for _, node in root.walk():
                entry = out.setdefault(node.name, [0, 0.0])
                entry[0] += node.calls
                entry[1] += node.own
        return out

    def calls_below(self, layer: str, qual: str) -> int:
        """Calls of ``qual`` made while some function of ``layer`` was on the stack."""
        total = 0
        prefix = layer + "."
        for _, _, _, root in self.ops:
            for path, node in root.walk():
                if node.name == qual and any(p.startswith(prefix) for p in path):
                    total += node.calls
        return total

    def to_dict(self) -> dict:
        return {
            "ops": [
                {"op": index, "start_s": start, "end_s": end, "tree": root.to_dict()}
                for index, start, end, root in self.ops
            ],
            "counts": dict(sorted(self.counts.items())),
        }
