"""Metamorphic tests: transforms the method must be blind to.

Gap fractions are ratios of geodesic lengths over a vertex labelling, so a
rigid motion, a uniform scale and a renumbering of the vertices must leave
every per-area rgm_nauc unchanged up to rounding. Each law runs on
phantoms that hypothesis draws (`test_laws.PHANTOMS`: disk and dome at
1.0 mm, keep 0.3-1.0, patchiness 0-2, taper none or (2.5, 9.0), seed 0-3)
under `test_laws.LAW`'s derandomized settings, and on SPEC, the one fixed
phantom these tests checked before. Over 64 such specs, rigid motion moved
rgm_nauc by at most 5.9e-16 relative, and scale and relabelling by 0; one
`run_case` took 0.05-0.09 s on a 2-vCPU host.

Moving the interior vertices of a planar disk within its plane gives
another triangulation of the same surface. RGM may move under it, but only
within a spread that the law states.

A scale by a power of two changes no bit of any product or quotient, so
under it the whole report must come out exactly as before with each length
multiplied by the scale, and every count, region and ratio the same.
"""

import dataclasses
import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402

from pvgap.mesh import SurfaceMesh  # noqa: E402
from pvgap.regions import RegionConfig  # noqa: E402
from pvgap.sweep import case_report, run_case  # noqa: E402
from pvgap.synth import PhantomSpec, make_phantom  # noqa: E402
from test_laws import LAW, PHANTOMS  # noqa: E402

SPEC = PhantomSpec(keep_fraction=0.6, taper=(2.5, 8.0), patchiness=2,
                   seed=3)
INVARIANCE = settings(LAW, max_examples=8)
# the report's fields that hold a length in mesh units
LENGTHS = ("gap_length_mm", "total_length_mm", "length_mm",
           "gap_length_mm_mean", "gap_length_mm_sd")


def _report(spec, mesh, config):
    report = case_report(run_case(mesh, config, spec.blood_pool_mean,
                                  spec.blood_pool_sd))
    assert all(a["status"] == "ok" for a in report["areas"].values())
    return report


def _naucs(report):
    return {name: a["rgm_nauc"] for name, a in report["areas"].items()}


@functools.cache  # the three laws draw the same specs
def _base(spec):
    """(mesh, config, case report) of the untransformed phantom."""
    mesh, config, _truth = make_phantom(spec)
    return mesh, config, _report(spec, mesh, config)


def _scaled(value, s):
    """A report, or a part of one, with every length multiplied by s."""
    if isinstance(value, dict):
        return {k: s * v if k in LENGTHS else _scaled(v, s)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_scaled(v, s) for v in value]
    return value


def _moved(mesh, vertices):
    return SurfaceMesh(vertices, mesh.triangles, intensity=mesh.intensity,
                       region=mesh.region, name=mesh.name)


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-9, abs=0.0)


@INVARIANCE
@given(spec=PHANTOMS)
@example(spec=SPEC)
def test_rigid_motion(spec):
    mesh, config, want = _base(spec)
    rng = np.random.default_rng(11)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = mesh.vertices @ q.T + np.array([12.5, -40.0, 7.25])
    _assert_same(_naucs(_report(spec, _moved(mesh, moved), config)),
                 _naucs(want))


# 2**-10 puts a mesh in mm at about the size of one in metres
@pytest.mark.parametrize("s", [2.0, 2.0 ** -10])
@INVARIANCE
@given(spec=PHANTOMS)
@example(spec=SPEC)
def test_uniform_scale(s, spec):
    mesh, config, want = _base(spec)
    got = _report(spec, _moved(mesh, s * mesh.vertices), config)
    assert got == _scaled(want, s)


@INVARIANCE
@given(spec=PHANTOMS)
@example(spec=SPEC)
def test_vertex_relabelling(spec):
    mesh, config, want = _base(spec)
    perm = np.random.default_rng(5).permutation(mesh.n_vertices)
    new_of_old = np.argsort(perm)  # new vertex i is old vertex perm[i]
    relabelled = SurfaceMesh(mesh.vertices[perm], new_of_old[mesh.triangles],
                             intensity=mesh.intensity[perm],
                             region=mesh.region[perm], name=mesh.name)

    def remap(ids):
        return tuple(int(new_of_old[v]) for v in ids)

    areas = tuple(dataclasses.replace(
        a, vein_seeds=remap(a.vein_seeds),
        cut_vertices=None if a.cut_vertices is None
        else tuple(remap(path) for path in a.cut_vertices))
        for a in config.areas)
    _assert_same(_naucs(_report(spec, relabelled, RegionConfig(areas=areas))),
                 _naucs(want))


# (spec, bound on the spread of each factor's RGM over six jittered meshes)
RETRIANGULATED = {
    "keep-0.5": (PhantomSpec(keep_fraction=0.5, target_edge_mm=0.5), 0.02),
    "tapered-keep-0.75": (PhantomSpec(keep_fraction=0.75, target_edge_mm=0.5,
                                      patchiness=4, taper=(2.5, 9.0)), 0.02)}


@pytest.mark.parametrize("name", RETRIANGULATED)
def test_moving_interior_vertices_in_the_plane(name):
    """Moving every vertex off the boundary loops by a seeded uniform
    +-0.1 mm in x and y (a fifth of the 0.5 mm edge) re-triangulates the
    same planar disk, and must move no default factor's RGM by more than
    0.02 across six seeds. Measured spreads (max - min over the six): the
    keep-0.5 disk 0.0091 at every factor; the tapered keep-0.75,
    patchiness-4 disk 0.0063 / 0.0114 / 0.0127 / 0.0042 / 0.0104 at
    factors 2.0 / 3.3 / 4.0 / 5.0 / 6.0. The two cases take about 0.4 s
    and 1.4 s on a 2-vCPU host."""
    spec, bound = RETRIANGULATED[name]
    mesh, config, _truth = make_phantom(spec)
    assert np.ptp(mesh.vertices[:, 2]) == 0.0  # planar: x, y stay in it
    inner = np.setdiff1d(np.arange(mesh.n_vertices),
                         np.concatenate(mesh.boundary_loops()))
    rgms = []
    for seed in range(6):
        vertices = mesh.vertices.copy()
        vertices[inner, :2] += np.random.default_rng(seed).uniform(
            -0.1, 0.1, size=(inner.size, 2))
        result = run_case(_moved(mesh, vertices), config,
                          spec.blood_pool_mean, spec.blood_pool_sd)
        assert all(area.ok for area in result.areas)
        rgms.append([[t.path.rgm for t in area.results]
                     for area in result.areas])
    spread = np.ptp(rgms, axis=0)
    assert spread.shape[-1] == 5, spread  # every default factor
    assert spread.max() <= bound, spread
    # not vacuous: the jitter moves RGM
    assert spread.min() > 0.0, spread
