"""The layer tracer's accounting, on toy functions and generators."""

from __future__ import annotations

import time

import pytest
from tracer import LayerTracer

from repro.sim.engine import Simulator, Sleep


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_nested_wrapped_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 4.0

    wrapped_inner = tracer.wrap_function(inner, "inner")
    tracer.wrap_function(outer, "outer")()

    assert tracer.self_s == {"inner": 2.0, "outer": 5.0}
    assert tracer.covered_s == 7.0


def test_generator_is_charged_nothing_while_suspended():
    """A generator parked on a long virtual Sleep while other wall work runs."""
    tracer = LayerTracer()

    def toy():
        yield Sleep(1e6)  # a long virtual wait
        return "done"

    def parked():
        return (yield from wrapped_toy())

    def busy():
        time.sleep(0.2)  # wall time spent while ``toy`` is suspended
        yield Sleep(1.0)

    wrapped_toy = tracer.wrap_generator(toy, "toy")
    sim = Simulator()
    proc = sim.spawn(parked(), name="parked")
    sim.spawn(busy(), name="busy")
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0

    assert proc.result == "done"
    assert sim.now == pytest.approx(1e6)
    assert wall >= 0.2
    assert tracer.self_s["toy"] < 0.01


def test_generator_resumptions_add_up_and_return_value_passes_through():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    seen = []

    def gen():
        clock.now += 1.0
        got = yield "first"
        clock.now += 3.0
        return got * 2

    wrapped = tracer.wrap_generator(gen, "gen", after=lambda a, k, r: seen.append(r))
    g = wrapped()
    assert next(g) == "first"
    clock.now += 100.0  # suspended: not charged
    with pytest.raises(StopIteration) as stop:
        g.send(21)
    assert stop.value.value == 42
    assert seen == [42]
    assert tracer.self_s["gen"] == 4.0


def test_exception_leaves_accounts_balanced():
    tracer = LayerTracer()

    def boom():
        raise ValueError("boom")
        yield  # pragma: no cover

    with pytest.raises(ValueError):
        next(tracer.wrap_generator(boom, "boom")())
    with pytest.raises(ValueError):
        tracer.wrap_function(lambda: next(boom()), "fn")()
    tracer.reset()  # raises if a frame was left open


def test_patch_and_uninstall_restore_originals():
    class Thing:
        def value(self):
            return 7

    original = Thing.__dict__["value"]
    tracer = LayerTracer()
    tracer.patch(Thing, "value", "thing", after=lambda a, k, r: tracer.count("calls"))
    assert Thing().value() == 7
    assert tracer.counts["calls"] == 1
    tracer.uninstall()
    assert Thing.__dict__["value"] is original
