"""Self-time accounting is exact on synthetic nested and threaded calls."""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from recorder import Patches, Recorder, Span, layer_totals, self_times, union_length, wall_seconds


class Clock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(5, 6), (0, 10)]) == 10.0


def test_nested_calls():
    clock = Clock()
    rec = Recorder(clock)
    rec.begin("outer")  # 0..10
    clock.now = 2
    rec.begin("inner")  # 2..5
    clock.now = 3
    rec.begin("leaf")  # 3..4
    clock.now = 4
    rec.end()
    clock.now = 5
    rec.end()
    clock.now = 6
    rec.begin("inner")  # 6..7
    clock.now = 7
    rec.end()
    clock.now = 10
    rec.end()
    totals = layer_totals(rec.drain())
    assert totals["outer"] == (6.0, 1, 0)
    assert totals["inner"] == (3.0, 2, 0)
    assert totals["leaf"] == (1.0, 1, 0)
    assert rec.drain() == []


def test_overlapping_children_on_other_threads():
    # parent 0..10 waits on two pool jobs running 1..6 and 3..8 on two threads
    spans = [
        Span(1, None, "parent", 1, 0.0, 10.0, 0),
        Span(2, 1, "job", 2, 1.0, 6.0, 0),
        Span(3, 1, "job", 3, 3.0, 8.0, 0),
        Span(4, 3, "leaf", 3, 4.0, 5.0, 0),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 5.0, 3: 4.0, 4: 1.0}
    assert wall_seconds(spans, "job") == 7.0
    # children reaching past their parent only count inside it
    clipped = [Span(1, None, "p", 1, 0.0, 4.0, 0), Span(2, 1, "c", 2, 3.0, 9.0, 0)]
    assert self_times(clipped)[1] == 3.0


def test_pool_workers_inherit_the_submitting_span():
    clock = Clock()
    rec = Recorder(clock)
    patches = Patches()
    rec.follow_threads(patches)
    started = threading.Barrier(3, timeout=10)  # two jobs and the test
    release = threading.Event()

    def job(i):
        rec.begin("job")
        started.wait()
        assert release.wait(timeout=10)
        rec.end(i)
        return threading.get_ident()

    try:
        rec.begin("parent")
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(job, i) for i in (1, 2)]
            started.wait()  # both jobs open at clock 0
            clock.now = 4.0
            release.set()
            threads = {f.result(timeout=10) for f in futures}
        clock.now = 5.0
        rec.end()
    finally:
        patches.undo()
    assert ThreadPoolExecutor.submit.__name__ == "submit"
    spans = rec.drain()
    parent = next(s for s in spans if s.name == "parent")
    jobs = [s for s in spans if s.name == "job"]
    assert len(threads) == 2 and {s.thread for s in jobs} == threads
    assert all(s.parent == parent.id for s in jobs)
    totals = layer_totals(spans)
    assert totals["parent"] == (1.0, 1, 0)  # 5 s minus the 4 s both jobs covered
    assert totals["job"] == (8.0, 2, 3)


def test_traced_wrapper_counts_and_survives_errors():
    clock = Clock()
    rec = Recorder(clock)

    def work(n):
        clock.now += n
        if n < 0:
            raise ValueError(n)
        return list(range(n))

    traced = rec.traced(work, lambda n: f"work{n > 0}", count=len)
    assert traced(3) == [0, 1, 2]
    with pytest.raises(ValueError):
        traced(-1)
    spans = rec.drain()
    assert [(s.name, s.end - s.start, s.count) for s in spans] == [
        ("workTrue", 3.0, 3),
        ("workFalse", -1.0, 0),
    ]
    assert rec.current() is None


def test_patches_replace_every_binding_and_undo():
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def f():
        return "orig"

    pkg.f = f
    sub.alias = f
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    try:
        patches = Patches()
        patches.function(pkg, "f", lambda g: lambda: "new " + g())
        assert pkg.f() == "new orig" and sub.alias() == "new orig"
        patches.undo()
        assert pkg.f is f and sub.alias is f
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]
