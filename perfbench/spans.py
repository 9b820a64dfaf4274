"""In-memory spans around the package's public functions, and self time.

The benchmark wraps the functions from outside: each wrapper is rebound in
place of the original in every ``helmdeconv`` module namespace that holds
it (the package root and each module that imported it by name), and on the
class for methods.  The package itself is not changed.  Spans are kept in
flat arrays while the run lasts and written once at the end.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter

NO_PARENT = -1


class Tracer:
    """Records one span per wrapped call: id, name, start, end, parent, request."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_ids = array("q")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.counts: dict[str, float] = {}
        self._next_id = 0
        self._stack = [NO_PARENT]
        self.request = NO_PARENT

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name_id: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``names[name_id]``."""
        span = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.span_ids.append(span)
            self.name_ids.append(name_id)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent)
            self.requests.append(self.request)

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs)

        return traced

    def spans(self):
        """(id, name, start, end, parent, request) tuples in completion order."""
        return [
            (s, self.names[n], t0, t1, p, r)
            for s, n, t0, t1, p, r in zip(self.span_ids, self.name_ids, self.starts,
                                          self.ends, self.parents, self.requests)
        ]

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: id,name,start_s,end_s,parent,request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,request\n")
            for s, name, t0, t1, p, r in self.spans():
                out.write(f"{s},{name},{t0!r},{t1!r},{p},{r}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time in seconds).

    A span's self time is its duration minus the part of its interval that
    its direct child spans cover.  ``spans`` holds
    ``(id, name, start, end, parent, ...)`` tuples in any order.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    totals: dict[str, tuple[int, float]] = {}
    for span_id, name, start, end, *_ in spans:
        own = (end - start) - _covered(children.get(span_id, []), start, end)
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + own)
    return totals


class Patch:
    """Rebinds wrapped functions in every ``helmdeconv`` namespace; undoes on exit."""

    def __init__(self, package: str = "helmdeconv"):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _namespaces(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None
                and (name == self.package or name.startswith(self.package + "."))]

    def function(self, original, wrapper) -> None:
        """Replace ``original`` wherever a package module holds it by name."""
        found = False
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no {self.package} module")

    def method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
