import pytest

from spans import Tracer, layer_metrics


class FakeClock:
    """Returns the next scripted time on each call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 6]; b holds c [5.2, 5.7]
    tracer = Tracer(FakeClock([0.0, 1.0, 4.0, 5.0, 5.2, 5.7, 6.0, 10.0]))
    outer = tracer.open("x.outer")
    a = tracer.open("x.a")
    tracer.close(a)
    b = tracer.open("x.b")
    c = tracer.open("y.c")
    tracer.close(c)
    tracer.close(b)
    tracer.close(outer)
    st = tracer.self_times()
    assert st["x.outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st["x.a"] == pytest.approx(3.0)
    assert st["x.b"] == pytest.approx(0.5)
    assert st["y.c"] == pytest.approx(0.5)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]


def test_self_times_sum_to_root_duration():
    tracer = Tracer(FakeClock([float(t) for t in range(8)]))
    add = tracer.wrap("m.add", lambda x, y: x + y)
    outer = tracer.wrap("m.outer", lambda: add(1, 2) + add(3, 4))
    assert outer() == 10
    st = tracer.self_times()
    root = tracer.spans[0]
    assert sum(st.values()) == pytest.approx(root[2] - root[1])


def test_wrap_records_check_id_name_callable_and_raise():
    tracer = Tracer()

    def boom(kind):
        raise ArithmeticError(kind)

    traced = tracer.wrap(lambda args: f"m.{args[0]}", boom)
    tracer.check_id = 7
    with pytest.raises(ArithmeticError):
        traced("quad")
    name, start, end, parent, check, raised = tracer.spans[0]
    assert (name, parent, check, raised) == ("m.quad", -1, 7, True)
    assert end >= start
    assert tracer.calls("m.quad") == (1, 1)


def test_layer_metrics_accept_ratio_and_counts():
    tracer = Tracer()
    integral = tracer.wrap("quadrature.filon_integral", lambda: 0.0)
    adaptive = tracer.wrap("quadrature.filon_adaptive", lambda: (integral(), integral()))
    adaptive()
    adaptive()
    metrics = layer_metrics(tracer)
    assert metrics["quadrature.accept_ratio"] == pytest.approx(2 / 4)
    assert metrics["trace.spans"] == 6
    assert metrics["quadrature.errors"] == 0
