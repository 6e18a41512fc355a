"""Span tracing of staircodes from outside the package.

The tracer replaces public functions of the package's modules with thin
wrappers that record one span per call: (name, start, end, parent, op id,
work).  ``work`` is an optional tuple of exact counts taken from the call's
arguments, such as the coefficient entries a region kernel applies.  Spans
stay in memory until the run ends; per-name calls, total and self time are
computed from them afterwards.  Nothing inside the package is modified:
leaving ``traced()`` puts every original attribute back.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _matmul_work(orig):
    def work(self, coef, regions):
        shape = np.shape(coef)
        return (shape[0] * shape[1], int(regions.nbytes))

    return work


def _trials_work(orig):
    sig = inspect.signature(orig)

    def work(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return (int(bound.arguments["trials"]),)

    return work


def targets(pkg):
    """(owner, attribute, span name, work factory) for every traced entry
    point of the package's modules (attributes of ``pkg``).  A work factory takes the original function and returns a
    function of the same arguments that gives the call's exact counts.
    Names that ``cli`` imported directly are wrapped where ``cli`` looks
    them up, under the same span name as the original."""
    cli, container, stair, mds, gf = pkg.cli, pkg.container, pkg.stair, pkg.mds, pkg.gf
    reliability, sim = pkg.reliability, pkg.sim
    return [
        (cli, "stair_encode", "stair.encode", None),
        (cli, "stair_decode", "stair.decode", None),
        (stair, "encode", "stair.encode", None),
        (stair, "decode", "stair.decode", None),
        (stair.Step, "apply", "stair.Step.apply", None),
        (mds.GenMatrix, "decode_matrix", "mds.decode_matrix", None),
        (gf.Field, "matmul_regions", "gf.matmul_regions", _matmul_work),
        (gf.Field, "mat_inv", "gf.mat_inv", None),
        (gf.Field, "mat_mul", "gf.mat_mul", None),
        (container, "stripe_to_bytes", "container.stripe_to_bytes", None),
        (container, "stripe_from_bytes", "container.stripe_from_bytes", None),
        (container, "fill_data", "container.fill_data", None),
        (container, "extract_data", "container.extract_data", None),
        (reliability, "p_str_stair", "reliability.p_str_stair", None),
        (reliability, "mttdl", "reliability.mttdl", None),
        (sim, "monte_carlo_p_str", "sim.monte_carlo_p_str", _trials_work),
        (sim, "outcome_histogram", "sim.outcome_histogram", _trials_work),
    ]


class Tracer:
    """Records a span for every wrapped call made inside ``traced()``."""

    def __init__(self, entry_points):
        self.entry_points = entry_points
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self._op = 0

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, orig, name, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count = work(orig) if work is not None else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            info = count(*args, **kwargs) if count is not None else None
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._op, info)

        traced.__wrapped__ = orig
        return traced

    @contextmanager
    def traced(self):
        """Wrap every entry point for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, work in self.entry_points:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(orig, name, work))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    # -- spans opened by the benchmark itself --------------------------------

    def begin_op(self) -> int:
        self._op += 1
        return self._op

    @property
    def last_op(self) -> int:
        return self._op

    @contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark (e.g. one command)."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self._op, None)

    # -- aggregation --------------------------------------------------------

    def aggregate(self, ops) -> dict:
        """Per span name: calls, self seconds, summed work and the number of
        spans whose parent has a given name, over the given ops."""
        ops = set(ops)
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, op, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        agg: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": None,
                                         "parents": defaultdict(int)})
        for idx, (name, t0, t1, parent, op, info) in enumerate(spans):
            if op not in ops:
                continue
            row = agg[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[idx]
            if info is not None:
                row["work"] = (info if row["work"] is None
                               else tuple(a + b for a, b in zip(row["work"], info)))
            if parent >= 0:
                row["parents"][spans[parent][0]] += 1
        return agg

    def write(self, path) -> None:
        """Write every span as CSV: name,start,end,parent,op,work."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,op,work\n")
            for name, t0, t1, parent, op, info in self.spans:
                work = "" if info is None else " ".join(str(x) for x in info)
                out.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op},{work}\n")
