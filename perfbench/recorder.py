"""Span recorder for the traced benchmark run.

Spans are opened and closed around calls into the program from the
benchmark's own wrappers; the program itself is not modified.  Every span
keeps its name, start, end, the thread it ran on and the span that caused
it.  A span opened on a worker thread of a ThreadPoolExecutor takes as its
parent the span that was open on the submitting thread, so work fanned out
to the solver's pool stays attached to the call that started it.

Spans stay in memory until the run ends; summaries are computed from them.
A span's self time is its duration minus the part of its interval covered
by its children.  Children on other threads can overlap each other, so the
covered part is the length of the union of their intervals.
"""

import functools
import itertools
import sys
import threading
from collections import defaultdict, namedtuple
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

Span = namedtuple("Span", "id parent name thread start end count")


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or the inherited parent."""
        stack = self._stack()
        if stack:
            return stack[-1][0]
        return getattr(self._local, "inherited", None)

    def begin(self, name):
        span_id = next(self._ids)
        self._stack().append((span_id, self.current(), name, self.clock()))
        return span_id

    def end(self, count=0):
        span_id, parent, name, start = self._stack().pop()
        end = self.clock()
        self.spans.append(
            Span(span_id, parent, name, threading.get_ident(), start, end, count)
        )

    def drain(self):
        """Finished spans so far, removed from the recorder."""
        done, self.spans = self.spans, []
        return done

    def traced(self, fn, name, count=None):
        """fn wrapped in a span; name may be a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name(*args, **kwargs) if callable(name) else name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                self.end(n)

        return wrapper

    def follow_threads(self, patches):
        """Make pool workers inherit the submitting thread's open span."""
        original = ThreadPoolExecutor.submit
        local = self._local
        current = self.current

        def submit(pool, fn, /, *args, **kwargs):
            parent = current()

            def run(*a, **k):
                local.inherited = parent
                try:
                    return fn(*a, **k)
                finally:
                    local.inherited = None

            return original(pool, run, *args, **kwargs)

        patches.set_attr(ThreadPoolExecutor, "submit", submit)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set_attr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr, make):
        """Replace a module function in every module of its package that binds it.

        Modules import each other's functions by name, so a call from
        inside the package only goes through the replacement if every
        binding is replaced.
        """
        original = getattr(module, attr)
        replacement = make(original)
        package = module.__name__.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set_attr(mod, key, replacement)
        return replacement

    def method(self, cls, attr, make):
        self.set_attr(cls, attr, make(cls.__dict__[attr]))

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans):
    """{name: (self seconds, calls, summed counts)} over a set of spans."""
    own = self_times(spans)
    totals = defaultdict(lambda: [0.0, 0, 0])
    for s in spans:
        t = totals[s.name]
        t[0] += own[s.id]
        t[1] += 1
        t[2] += s.count
    return {name: tuple(t) for name, t in totals.items()}


def wall_seconds(spans, prefix):
    """Time during which at least one span whose name starts with prefix was open."""
    return union_length((s.start, s.end) for s in spans if s.name.startswith(prefix))
