"""Self-time arithmetic and rebinding of the benchmark's span tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import TRACE_TARGETS, Tracer, self_times_from_spans, span_names  # noqa: E402


def span(sid, parent, name, start, end):
    return (sid, parent, 0, name, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 3.0),
        span(3, 1, "b", 4.0, 6.0),
        span(4, 3, "c", 4.5, 5.0),
    ]
    got = self_times_from_spans(spans)
    assert got == pytest.approx({"root": 6.0, "a": 2.0, "b": 1.5, "c": 0.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [
        span(1, 0, "root", 0.0, 4.0),
        span(2, 1, "a", -1.0, 2.0),
        span(3, 1, "a", 1.0, 3.0),
    ]
    got = self_times_from_spans(spans)
    assert got["root"] == pytest.approx(1.0)


def test_self_time_sums_repeated_names():
    spans = [span(1, 0, "f", 0.0, 2.0), span(2, 0, "f", 5.0, 6.0)]
    assert self_times_from_spans(spans) == pytest.approx({"f": 3.0})


class TickClock:
    """A clock that advances by one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_online_self_times_match_span_records():
    tracer = Tracer(clock=TickClock())

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap(leaf, "x.leaf")

    def mid():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_mid = tracer.wrap(mid, "x.mid")

    def top():
        return wrapped_mid() + wrapped_leaf()

    wrapped_top = tracer.wrap(top, "x.top")
    assert wrapped_top() == 3
    online = {name: st.self_s for name, st in tracer.stats.items()}
    assert online == pytest.approx(self_times_from_spans(tracer.spans))
    assert tracer.stats["x.leaf"].calls == 3
    assert tracer.stats["x.mid"].calls == 1
    assert sum(online.values()) == pytest.approx(tracer.root_time)
    # every leaf span lasts one tick; each parent pays one tick per child boundary pair
    assert online["x.leaf"] == pytest.approx(3.0)


def test_recursion_is_counted_per_call_and_never_double_counted():
    tracer = Tracer(clock=TickClock())
    holder = {}

    def fact(n):
        return 1 if n <= 1 else n * holder["f"](n - 1)

    holder["f"] = tracer.wrap(fact, "x.fact")
    assert holder["f"](4) == 24
    st = tracer.stats["x.fact"]
    assert st.calls == 4
    assert st.self_s == pytest.approx(tracer.root_time)


def test_span_cap_keeps_aggregates_exact():
    tracer = Tracer(span_cap=2, clock=TickClock())
    f = tracer.wrap(lambda: None, "x.f")
    for _ in range(5):
        f()
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3
    assert tracer.stats["x.f"].calls == 5


def test_exceptions_close_their_span():
    tracer = Tracer(clock=TickClock())

    def boom():
        raise KeyError("x")

    f = tracer.wrap(boom, "x.boom")
    with pytest.raises(KeyError):
        f()
    assert tracer.stats["x.boom"].calls == 1
    assert tracer.stats["x.boom"].depth == 0
    assert len(tracer._frames) == 1


@pytest.fixture
def fake_package(monkeypatch):
    """A package with one traced function bound in two modules."""
    pkg = types.ModuleType("fakepkg")
    bath = types.ModuleType("fakepkg.bath")
    analysis = types.ModuleType("fakepkg.analysis")

    def profile_at(m, t, backend="closed_form"):
        return (m, t, backend)

    def find_extremum(series):
        return [analysis.profile_at(series, t) for t in range(3)]

    bath.profile_at = profile_at
    analysis.profile_at = profile_at
    pkg.profile_at = profile_at
    analysis.find_extremum = find_extremum
    for mod in (pkg, bath, analysis):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, bath, analysis, profile_at


def test_prepare_rebinds_every_site_and_reports_absent(fake_package):
    pkg, bath, analysis, original = fake_package
    tracer = Tracer()
    tracer.prepare(package="fakepkg")
    assert tracer.bound_sites() == [
        "fakepkg.analysis.find_extremum",
        "fakepkg.analysis.profile_at",
        "fakepkg.bath.profile_at",
        "fakepkg.profile_at",
    ]
    expected_absent = set(span_names()) - {
        "bath.profile_at.closed_form", "bath.profile_at.quadrature", "analysis.find_extremum",
    }
    assert set(tracer.absent) == expected_absent
    tracer.install()
    try:
        assert bath.profile_at is not original and analysis.profile_at is pkg.profile_at
        bath.profile_at(1, 2.0, backend="quadrature")
        analysis.find_extremum("s")
    finally:
        tracer.uninstall()
    assert bath.profile_at is original and analysis.profile_at is original
    assert tracer.stats["bath.profile_at.quadrature"].calls == 1
    assert tracer.stats["bath.profile_at.closed_form"].calls == 3
    assert tracer.nested[("bath.profile_at", "analysis.find_extremum")] == 3


def test_span_names_cover_every_target():
    names = span_names()
    assert len(names) == len(set(names))
    assert sum(len(v) for v in TRACE_TARGETS.values()) + 1 == len(names)
