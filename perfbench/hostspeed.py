"""A fixed reference task, timed between ``execute`` calls, that tells how
fast the host runs at the moment.

The benchmark shares its CPUs with other tenants. Their load slows the
interpreter by up to half for stretches of seconds to many minutes, which
no statistic over one invocation can remove. The reference task runs the
same kinds of work as tgcl (interpreted Python over dicts, lists and
strings, and small numpy operations in a Python loop) and no tgcl code,
so no change to tgcl moves it, while host load slows it much as it slows
tgcl. Timings divided by the reference time around them are steady
across host load; see README.md for the measurements.
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter

import numpy as np

TASKS_PER_GAP = 3  # the fewest reference tasks timed between two execute calls
REFERENCE_SHARE = 0.1  # time spent on the reference task, per second measured


class Reference:
    """Times the reference task; :meth:`gap` returns the median of several."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.random((32, 32))
        self._x = rng.random((64, 32))
        self._records = [
            {"id": i, "name": f"n{i % 97}-{i}", "vals": list(range(i % 7)), "w": i * 0.5}
            for i in range(2000)
        ]
        for _ in range(TASKS_PER_GAP):  # untimed warm-up
            self._task()

    def _task(self) -> float:
        """About 0.1 s of work on an idle host."""
        t0 = perf_counter()
        for _ in range(8):
            back = json.loads(json.dumps(self._records))
            by_name = {d["name"]: d for d in sorted(back, key=lambda d: (d["name"], -d["id"]))}
            text = " ".join(f"{k}:{d['w']:.2f}" for k, d in by_name.items())
            re.findall(r"n(\d+)-(\d+)", text)
        acc = 0.0
        for i in range(15_000):
            v = self._x[i % 64] @ self._w
            np.tanh(v, out=v)
            acc += float(v.sum())
        return perf_counter() - t0

    def gap(self, seconds: float = 0.0) -> float:
        """Median time of the task, run at least ``TASKS_PER_GAP`` times and
        for at least ``seconds``."""
        times: list[float] = []
        t0 = perf_counter()
        while len(times) < TASKS_PER_GAP or perf_counter() - t0 < seconds:
            times.append(self._task())
        return statistics.median(times)


def per_reference(values: list[float], refs: list[float]) -> float:
    """Total of ``values`` over the total reference time around them: each
    value's reference time is the mean of those just before and just after
    it (``refs`` has one more entry than ``values``). A ratio of totals, not
    a median of ratios, because a single reference time is the noisier of
    the two."""
    around = [(refs[i] + refs[i + 1]) / 2 for i in range(len(values))]
    return sum(values) / sum(around)
