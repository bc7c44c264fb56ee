import itertools

import pytest

from ledger import ENGINE_SPAN, ROOT, Ledger, NullLedger


def fake_clock(step=1.0):
    """Each reading advances by ``step``: every span boundary costs one
    tick, so self times are exact small integers."""
    counter = itertools.count()
    return lambda: next(counter) * step


def test_self_time_excludes_nested_wrapped_calls():
    led = Ledger(clock=fake_clock())          # root starts at t=0

    def leaf():
        return "leaf"

    inner = led.wrap("l2.on_message", leaf)

    def middle():
        inner()                               # enter t=2, exit t=3
        return inner()                        # enter t=4, exit t=5

    outer = led.wrap("noc.send", middle)      # enter t=1, exit t=6
    assert outer() == "leaf"
    led.close()                               # t=7
    assert led.self_s["l2.on_message"] == 2.0
    # noc.send spans 1..6 (5 ticks) minus its two 1-tick children.
    assert led.self_s["noc.send"] == 3.0
    assert led.self_s[ROOT] == 2.0            # 0..1 and 6..7
    assert led.wall_s == 7.0
    assert sum(led.self_s.values()) == led.wall_s
    assert led.calls == {"noc.send": 1, "l2.on_message": 2}


def test_span_context_and_exception_still_closes():
    led = Ledger(clock=fake_clock())

    def boom():
        raise KeyError("x")

    with led.span("sim.run"):
        with pytest.raises(KeyError):
            led.wrap("gpu.tick", boom)()
    led.close()
    assert led.self_s["gpu.tick"] == 1.0
    assert led.self_s["sim.run"] == 2.0
    assert sum(led.self_s.values()) == led.wall_s


def test_engine_direct_calls_count_only_immediate_children():
    led = Ledger(clock=fake_clock())
    inner = led.wrap("noc.send", lambda: None)
    handler = led.wrap("l1.on_message", inner)
    with led.span(ENGINE_SPAN):
        handler()
        handler()
        inner()
    led.close()
    assert led.engine_direct == {"l1.on_message": 2, "noc.send": 1}
    assert led.calls["noc.send"] == 3


def test_close_with_open_span_raises():
    led = Ledger(clock=fake_clock())
    led.enter("gpu.tick")
    with pytest.raises(RuntimeError):
        led.close()


def test_backdated_start():
    led = Ledger(clock=fake_clock(), start=-5.0)
    led.close()
    assert led.wall_s == 5.0
    assert led.self_s[ROOT] == 5.0


def test_null_ledger_is_transparent():
    led = NullLedger()
    fn = lambda: 1  # noqa: E731
    assert led.wrap("x.y", fn) is fn
    with led.span("x.y"):
        pass
    assert led.traced is False
