"""In-memory span tracer wrapped, from outside the package, around aflsim's layers.

A hook replaces one module or class attribute with a wrapper that records a
span (name, start, end, parent) per call and may bump counters taken from the
call's arguments and result.  A hook whose target no longer exists is
reported as absent and skipped, and a counter that no longer fits its call
is dropped, so the traced run survives refactors that delete or rename a
wrapped function.  The metrics derived from such a hook read as absent.
"""

import functools
import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple

import numpy as np


class Tracer:
    """Spans of one traced pass, kept in flat arrays until `reduce` is called."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.worlds: list = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open.pop()

    def reduce(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        if self._open != [-1]:
            raise RuntimeError("reduce() called with spans still open")
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64))
        dur = dur.astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: (int(calls[i]), incl[i] / 1e9, own[i] / 1e9) for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write the spans as gzip'd tab-separated text: name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                name = self.names[self.name_id[i]]
                out.write(f"{name}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")


class Hook(NamedTuple):
    """Wrap `module.attr` (a dotted path such as `World._build_contexts`).

    `span` names the span recorded per call (None records none); `count`
    is called as count(tracer, args, result) after each call; `factory`, when
    given, builds the replacement object instead of the default wrapper.
    """

    module: str
    attr: str
    span: str | None
    count: Callable | None = None
    factory: Callable | None = None


def _span_wrapper(tracer: Tracer, hook: Hook, fn, broken: set):
    name_id = tracer.name_index(hook.span) if hook.span else None
    count = hook.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name_id is None:
            result = fn(*args, **kwargs)
        else:
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        if count is not None and hook not in broken:
            try:
                count(tracer, args, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                broken.add(hook)
        return result

    return wrapper


def _resolve_owner(hook: Hook):
    """(owner object, final attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


class Installed:
    """Hooks currently patched in; `uninstall` restores every original."""

    def __init__(self, tracer: Tracer, hooks):
        self.hooks = tuple(hooks)
        self.present: set[Hook] = set()
        self.broken: set[Hook] = set()
        self._restore = []
        for hook in hooks:
            target = _resolve_owner(hook)
            if target is None:
                continue
            owner, leaf = target
            original = getattr(owner, leaf)
            if hook.factory is not None:
                replacement = hook.factory(tracer, original)
            else:
                replacement = _span_wrapper(tracer, hook, original, self.broken)
            setattr(owner, leaf, replacement)
            self._restore.append((owner, leaf, original))
            self.present.add(hook)

    def working(self, hook: Hook) -> bool:
        """True when the hook was patched in and its counter never failed."""
        return hook in self.present and hook not in self.broken

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()
