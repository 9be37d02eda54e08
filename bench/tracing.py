"""In-memory spans around the library's layer boundaries.

Tracing works from the outside: ``Tracer.patched`` rebinds the names
``levybarrier.pricers`` imported from the other modules, wraps
``HilbertKernel.apply``, ``HilbertKernel.for_grid`` and
``LevyModel.char_function`` at class level, and wraps the benchmark's own
entry points; it restores every original on exit.  Nothing in the
library changes, so traced and untraced prices must be bit-identical.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from levybarrier import pricers
from levybarrier.hilbert import HilbertKernel
from levybarrier.levy import LevyModel

# name bound in levybarrier.pricers -> span name (module.function)
PRICER_IMPORTS = {
    "factorize_values": "wiener_hopf.factorize_values",
    "window_values": "hilbert.window_values",
    "above_values": "hilbert.above_values",
    "below_values": "hilbert.below_values",
    "contour_points": "ztransform.contour_points",
    "invert": "ztransform.invert",
    "inverse_at_zero": "grid.inverse_at_zero",
    "damped_payoff_fourier": "payoff.damped_payoff_fourier",
    "filter_profile": "filters.filter_profile",
}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, call id, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call: int | None = None  # id of the benchmark call in flight

    def wrap(self, name, fn, note=None):
        """fn with a span around each call; note(args, result) -> attribute."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.call, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, ops):
        """Install the wrappers; ``ops`` holds the benchmark's entry points
        (price, quad_price, default_grid), wrapped in place."""
        saved = []

        def rebind(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for attr, name in PRICER_IMPORTS.items():
            note = (lambda a, r: len(r.points)) if attr == "contour_points" else None
            rebind(pricers, attr, self.wrap(name, getattr(pricers, attr), note))
        rebind(HilbertKernel, "apply",
               self.wrap("hilbert.apply", HilbertKernel.apply, lambda a, r: a[0].grid.M))
        build = HilbertKernel.__dict__["for_grid"].__func__
        rebind(HilbertKernel, "for_grid", classmethod(self.wrap("hilbert.kernel.build", build)))
        rebind(LevyModel, "char_function", self.wrap("levy.char_function", LevyModel.char_function))
        for attr, name in (("price", "pricers.price"), ("quad_price", "oracle.quad_price"),
                           ("default_grid", "grid.default_grid")):
            rebind(ops, attr, self.wrap(name, getattr(ops, attr)))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def totals(self):
        """name -> [count, total ns, self ns]; self excludes direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_ns[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tcall\tnote\n")
            for i, (name, start, end, parent, call, note) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{call}\t{'' if note is None else note}\n")
