"""Span tracing from outside the library.

The tracer replaces public names with timing wrappers in the namespace where
the calling module looks them up (``smash.hss.truncated_svd``, not
``smash.lowrank.truncated_svd``), so the library itself is untouched.  Spans
are aggregated in memory as they close, keyed by (phase, parent, name): each
key keeps its call count, total time and self time, where self time is the
span's duration minus the time covered by its child spans.  Hooks attached
to a wrapper add counts (entries evaluated, singular vectors kept, swaps)
at the same boundary.
"""

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self._stack = []              # [name, child_seconds] of open spans
        self._patched = []            # (owner, attr, original) to restore
        # (phase, parent, name) -> [calls, total_s, self_s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, counter) -> value
        self.counts = defaultdict(float)

    # -- recording -----------------------------------------------------------

    def count(self, key, value=1):
        self.counts[(self.phase, key)] += value

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            rec = self.spans[(self.phase, parent, name)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr, name, hook=None):
        """Replace owner.attr by a traced wrapper.

        hook(tracer, args, result) runs after each call to add counts.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            out = tracer.span(name, original, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, out)
            return out

        traced.__wrapped__ = original
        self.replace(owner, attr, traced)

    def replace(self, owner, attr, value):
        """Set owner.attr to value until restore()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- queries -------------------------------------------------------------

    def calls(self, names, phases=None, parents=None):
        return self._sum(0, names, phases, parents)

    def total(self, names, phases=None, parents=None):
        """Wall time inside spans with one of the names, not counting a span
        nested in another span of the same name twice."""
        return self._sum(1, names, phases, parents)

    def _sum(self, field, names, phases, parents):
        names = (names,) if isinstance(names, str) else names
        return sum(v[field] for (ph, parent, nm), v in self.spans.items()
                   if nm in names and parent != nm
                   and (phases is None or ph in phases)
                   and (parents is None or parent in parents))

    def counted(self, key, phases=None):
        return sum(v for (ph, k), v in self.counts.items()
                   if k == key and (phases is None or ph in phases))

    def table(self):
        """Rows of (phase, parent, name, calls, total_s, self_s), by self time."""
        rows = [(ph, parent or "-", nm, v[0], v[1], v[2])
                for (ph, parent, nm), v in self.spans.items()]
        rows.sort(key=lambda r: -r[5])
        return rows
