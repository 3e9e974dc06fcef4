"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Span, Tracer, covered, median_n, patched, self_times  # noqa: E402


def _span(name, start, end, parent=-1):
    return Span(name, float(start), float(end), parent, "case")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("a.inner", 2, 3, parent=1),
        _span("b", 5, 9, parent=0),
    ]
    assert self_times(spans) == [10 - 3 - 4, 3 - 1, 1, 4]


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("b", 3, 6, parent=0),  # overlaps a on [3, 4]
        _span("c", 8, 12, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 2)
    assert covered((0, 10), []) == 0.0
    assert covered((0, 10), [(11, 12), (5, 5)]) == 0.0


def test_tracer_records_parents_and_counts_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf, counts=lambda a, k, r: {"out": r})

    def outer():
        return traced_leaf(1) + traced_leaf(2)

    tracer.case = "c1"
    assert tracer.wrap("outer", outer)() == 5
    names = [(s.name, s.parent, s.case) for s in tracer.spans]
    assert names == [("outer", -1, "c1"), ("leaf", 0, "c1"), ("leaf", 0, "c1")]
    # outer 0..5, leaves 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert [s.counts for s in tracer.spans[1:]] == [{"out": 2}, {"out": 3}]
    assert list(tracer.ancestor_names(2)) == ["outer"]


def test_tracer_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom, counts=lambda a, k, r: {"n": 1})()
    (span,) = tracer.spans
    assert span.end >= span.start and span.counts == {}
    with tracer.span("after"):
        pass
    assert tracer.spans[-1].parent == -1


def test_speed_probe_scales_by_the_samples_near_the_window():
    import speed
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # snippets twice as slow as the reference inside [0, 10); each tick
    # runs the snippet twice and only the second run is timed
    probe.samples = [(0.1 * i, 4 * ref, 2 * ref) for i in range(100)]
    busy = 10.0 - 100 * 4 * ref
    assert probe.scaled(0.0, 10.0) == pytest.approx(busy / 2)
    # the slowest TRIM of the samples is left out of the speed
    assert speed.TRIM == 0.2
    probe.samples = [(0.1 * i, 4 * ref, (50 if i % 5 == 0 else 2) * ref)
                     for i in range(100)]
    assert probe.scaled(0.0, 10.0) == pytest.approx(busy / 2)
    # a window too short for MIN_SAMPLES borrows its nearest samples
    probe.samples += [(20.0 + 0.1 * i, 2 * ref, ref)
                      for i in range(speed.MIN_SAMPLES)]
    assert probe.scaled(21.0, 21.05) == pytest.approx(0.05 - 2 * ref)


def test_speed_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time

    import speed
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert probe.samples
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_median_reports_the_sample_count():
    assert median_n([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_n(x for x in (4.0, 1.0)) == (2.5, 2)
    with pytest.raises(ValueError):
        median_n([])


def test_patched_restores_module_and_class_attributes_on_error():
    mod = types.ModuleType("fake")
    mod.f = lambda: "orig"

    class Owner:
        def m(self):
            return "orig"

    original_f, original_m = mod.f, vars(Owner)["m"]
    with pytest.raises(RuntimeError):
        with patched([(mod, "f", lambda: "new"),
                      (Owner, "m", lambda self: "new")]):
            assert mod.f() == "new" and Owner().m() == "new"
            raise RuntimeError
    assert mod.f is original_f and vars(Owner)["m"] is original_m
    assert Owner().m() == "orig"


def test_layer_wrappers_are_restored_and_counts_repeat(tmp_path):
    import layers
    import workloads
    from pvgap import cli

    def attrs():
        return {(id(owner), attr): vars(owner)[attr]
                for owner, attr, _ in layers.replacements(Tracer())}

    before = attrs()
    case = workloads.Case("small", "disk-with-hole", 1.0, 0.75, patchiness=2)
    prep = workloads.prepare(case, seed=3, out_dir=tmp_path / "in")
    results = []
    for i in range(2):
        tracer = Tracer()
        with patched(layers.replacements(tracer)):
            rc = cli.main([*prep.argv, "--out", str(tmp_path / f"r{i}.json")])
        assert rc == 0
        results.append(layers.layer_metrics(tracer))
    assert attrs() == before
    first, second = results
    assert {m: first[m] for m in layers.COUNTS} \
        == {m: second[m] for m in layers.COUNTS}
    assert first["geodesics.dt_calls"] > 0
    assert first["geodesics.dt_calls.graph"] + first["geodesics.dt_calls.path"] \
        == first["geodesics.dt_calls"]
    assert first["mesh.load_vertices"] == prep.n_vertices
    assert (tmp_path / "r0.json").read_bytes() \
        == (tmp_path / "r1.json").read_bytes()
