"""Metamorphic tests: transforms the method must be blind to.

Gap fractions are ratios of geodesic lengths over a vertex labelling, so a
rigid motion, a uniform scale and a renumbering of the vertices must leave
every per-area rgm_nauc unchanged up to rounding.
"""

import dataclasses

import numpy as np
import pytest

from pvgap.mesh import SurfaceMesh
from pvgap.regions import RegionConfig
from pvgap.sweep import run_case
from pvgap.synth import PhantomSpec, make_phantom

SPEC = PhantomSpec(keep_fraction=0.6, taper=(2.5, 8.0), patchiness=2,
                   seed=3)


def _naucs(mesh, config):
    case = run_case(mesh, config, SPEC.blood_pool_mean, SPEC.blood_pool_sd)
    assert all(a.ok for a in case.areas)
    return {a.name: a.nauc for a in case.areas}


@pytest.fixture(scope="module")
def base():
    mesh, config, _truth = make_phantom(SPEC)
    return mesh, config, _naucs(mesh, config)


def _moved(mesh, vertices):
    return SurfaceMesh(vertices, mesh.triangles, intensity=mesh.intensity,
                       region=mesh.region, name=mesh.name)


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-9, abs=0.0)


def test_rigid_motion(base):
    mesh, config, want = base
    rng = np.random.default_rng(11)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = mesh.vertices @ q.T + np.array([12.5, -40.0, 7.25])
    _assert_same(_naucs(_moved(mesh, moved), config), want)


def test_uniform_scale(base):
    mesh, config, want = base
    _assert_same(_naucs(_moved(mesh, 2.0 * mesh.vertices), config), want)


def test_vertex_relabelling(base):
    mesh, config, want = base
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
    _assert_same(_naucs(relabelled, RegionConfig(areas=areas)), want)
