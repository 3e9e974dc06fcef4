"""The call sites the benchmark's traced run wraps must exist.

perfbench/layers.py names pvgap functions by owner and attribute; a rename
in pvgap would otherwise only show up as a failing traced benchmark run.
"""

from pathlib import Path

from pvgap.geodesics import distance_transform
from pvgap.synth import plane_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import replacements
    from tracer import Tracer

    sites = replacements(Tracer())
    assert sites
    for owner, attr, wrapper in sites:
        # the traced run swaps vars(owner)[attr], so the name must be the
        # owner's own attribute, not an inherited one
        assert callable(vars(owner).get(attr)), (owner, attr)
        assert wrapper.__wrapped__ is vars(owner)[attr]


def test_dt_counter_reads_a_real_field(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import _dt

    mesh = plane_grid(6, 5)
    field = distance_transform(mesh, [4, 2, 4])
    assert _dt((mesh, [4, 2, 4]), {}, field) == {"sources": 2,
                                                 "vertices": 30}
