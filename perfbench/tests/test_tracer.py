"""Self-time arithmetic of the tracer on a fake three-layer call tree."""

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def traced():
    clock = FakeClock()
    return Tracer(clock), clock


def test_nesting_splits_time_between_parent_and_children(traced):
    tracer, clock = traced

    def leaf():
        clock.tick(3.0)

    def middle():
        clock.tick(1.0)
        leaf()
        clock.tick(2.0)
        leaf()

    leaf = tracer.wrap(leaf, "c")
    middle = tracer.wrap(middle, "b")
    tracer.enter("a")
    clock.tick(0.5)
    middle()
    clock.tick(0.25)
    tracer.exit()
    assert tracer.self_s == {"a": 0.75, "b": 3.0, "c": 6.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 2}
    assert tracer.total_s() == 9.75 == clock.now


def test_recursion_counts_each_second_once(traced):
    tracer, clock = traced

    def down(depth):
        clock.tick(1.0)
        if depth:
            down(depth - 1)
        clock.tick(1.0)

    down = tracer.wrap(down, "b")
    tracer.enter("a")
    down(3)
    tracer.exit()
    assert tracer.self_s["b"] == 8.0
    assert tracer.calls["b"] == 4
    assert tracer.total_s() == clock.now


def test_exception_closes_the_span_and_propagates(traced):
    tracer, clock = traced

    def boom():
        clock.tick(2.0)
        raise ValueError("boom")

    boom = tracer.wrap(boom, "c")
    tracer.enter("a")
    with pytest.raises(ValueError):
        boom()
    clock.tick(1.0)
    tracer.exit()
    assert tracer.self_s == {"a": 1.0, "c": 2.0}
    assert not tracer.active


def test_wrappers_are_inert_outside_a_root_span(traced):
    tracer, clock = traced
    calls = []
    fn = tracer.wrap(lambda x: calls.append(x) or x * 2, "b")
    assert fn(21) == 42
    assert tracer.fire("c", calls.append, 7) is None
    assert calls == [21, 7]
    assert tracer.self_s == {} and tracer.calls == {}


def test_fire_files_a_deferred_callback_under_its_name(traced):
    tracer, clock = traced
    tracer.enter("a")
    tracer.fire("timer", clock.tick, 4.0)
    tracer.exit()
    assert tracer.self_s == {"a": 0.0, "timer": 4.0}
