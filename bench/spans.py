"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the harness, around its calls into each layer's
public functions; nothing inside ``src/`` is instrumented.  They stay in a
list until the run ends and are then written as JSON-lines (one span per
line: ``id, name, parent, workload, iteration, start, end, rows`` plus
``busy`` and ``self``).

Times are CPU seconds (user + system) of the harness and the children it
waited for, on the clock of :func:`benchenv.cpu_seconds` — see
:class:`benchenv.Timed` for why not the wall clock.

``busy`` is the time a span actually worked.  It equals ``end - start`` for
an ordinary span; a :meth:`Tracer.timed_iter` span is stretched over the
whole life of the iterator, so its ``busy`` is only the time spent inside
``next()``.  A span's ``self`` time is its ``busy`` minus its children's.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

from benchenv import cpu_seconds


class Tracer:
    """Records spans while :attr:`enabled`; a free pass-through otherwise."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        #: Set by the workload loop; copied onto every span it causes.
        self.iteration = 0
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._next_id = 0

    def _open(self, name: str, rows: int, start: float) -> Dict:
        record = {
            "id": self._next_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "iteration": self.iteration,
            "start": start,
            "end": start,
            "rows": rows,
        }
        self._next_id += 1
        return record

    @contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[Optional[Dict]]:
        """Time the enclosed block; yields the record so ``rows`` can be set."""
        if not self.enabled:
            yield None
            return
        record = self._open(name, rows, cpu_seconds())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = cpu_seconds()
            self._stack.pop()
            self.spans.append(record)

    def timed_iter(self, name: str, iterable: Iterable) -> Iterable:
        """Wrap ``iterable`` so the time inside its ``next()`` is one span.

        The consumer's own work between items is excluded, which is what
        separates a generator's cost from the loop that drains it.
        """
        if not self.enabled:
            return iterable
        return self._timed(name, iter(iterable))

    def _timed(self, name: str, iterator: Iterator) -> Iterator:
        # No child runs inside ``next()``, so the cheaper clock will do for
        # the two readings every item costs.
        clock = time.process_time
        record = self._open(name, 0, cpu_seconds())
        busy = 0.0
        rows = 0
        while True:
            entered = clock()
            try:
                item = next(iterator)
            except StopIteration:
                busy += clock() - entered
                break
            busy += clock() - entered
            rows += 1
            yield item
        record["end"] = cpu_seconds()
        record["rows"] = rows
        record["busy"] = busy
        self.spans.append(record)

    def finish(self) -> List[Dict]:
        """Fill in ``busy`` and ``self`` on every span; returns the spans."""
        children: Dict[int, float] = {}
        for record in self.spans:
            record.setdefault("busy", record["end"] - record["start"])
            if record["parent"] is not None:
                children[record["parent"]] = (
                    children.get(record["parent"], 0.0) + record["busy"]
                )
        for record in self.spans:
            record["self"] = record["busy"] - children.get(record["id"], 0.0)
        return self.spans

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.finish(), key=lambda r: r["id"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    # -- reducers over the finished spans ------------------------------------------
    def _named(self, prefix: str) -> List[Dict]:
        return [
            record
            for record in self.spans
            if record["name"] == prefix or record["name"].startswith(prefix + ".")
        ]

    def self_seconds(self, name: str) -> float:
        """Total self time of the spans called ``name`` (or ``name.*``)."""
        return sum(record["self"] for record in self._named(name))

    def rows_per_second(self, name: str) -> float:
        """Rows over self time; 0.0 when the run never entered the layer."""
        seconds = self.self_seconds(name)
        rows = sum(record["rows"] for record in self._named(name))
        return rows / seconds if seconds > 0 else 0.0

    def median_seconds(self, name: str) -> float:
        """Median self time per span; 0.0 when the run never entered the layer."""
        values = [record["self"] for record in self._named(name)]
        return statistics.median(values) if values else 0.0
