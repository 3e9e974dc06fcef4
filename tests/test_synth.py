"""Phantom generator: arc algebra, ground truth, mesh structure."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pvgap.mesh import connected_components
from pvgap.scar import threshold_mask
from pvgap.synth import (BAND_INNER_MM, BAND_OUTER_MM, HOLE_RADIUS, OVALITY,
                         SHAPES, TWO_PI, PhantomSpec, _centerline_samples,
                         _kept_arcs, _merge_arcs, _phantom_name,
                         _quantize9, _removed_mask, _rim_radius,
                         expected_rgm, icosphere, make_phantom, plane_grid,
                         removal_arcs)

DOME_RADIUS = 25.0


# --- arc algebra ---

def test_merge_arcs_hand_cases():
    assert _merge_arcs([]) == ()
    assert _merge_arcs([(1.0, 0.0), (2.0, -0.5)]) == ()
    assert _merge_arcs([(0.5, 1.0)]) == ((0.5, 1.0),)
    # overlap joins
    assert _merge_arcs([(0.1, 0.5), (0.4, 0.5)]) == ((0.1, 0.8),)
    # touching endpoints join too
    assert _merge_arcs([(0.0, 0.5), (0.5, 0.2)]) == ((0.0, 0.7),)
    # disjoint arcs come back sorted by start
    got = _merge_arcs([(3.0, 0.2), (1.0, 0.2)])
    assert [s for s, _ in got] == [1.0, 3.0]
    assert [w for _, w in got] == pytest.approx([0.2, 0.2], rel=1e-12)
    # width >= full circle collapses
    assert _merge_arcs([(1.0, TWO_PI)]) == ((0.0, TWO_PI),)
    assert _merge_arcs([(0.0, 4.0), (3.0, 4.0)]) == ((0.0, TWO_PI),)


def test_merge_arcs_wraps_zero():
    (s, w), = _merge_arcs([(6.0, 0.6)])
    assert math.isclose(s, 6.0) and math.isclose(w, 0.6)
    # arc through zero merges with one just past zero
    (s, w), = _merge_arcs([(6.0, 0.5), (0.1, 0.3)])
    assert math.isclose(s, 6.0)
    assert math.isclose(w, TWO_PI - 6.0 + 0.4)
    # negative start normalizes
    (s, w), = _merge_arcs([(-0.5, 1.0)])
    assert math.isclose(s, TWO_PI - 0.5) and math.isclose(w, 1.0)


def test_merge_arcs_mask_equivalence():
    # merged arcs select exactly the same angles as the raw union
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, TWO_PI, 5000, endpoint=False) + 1e-4
    for _ in range(50):
        n = int(rng.integers(1, 7))
        arcs = [(float(rng.uniform(-1.0, TWO_PI)),
                 float(rng.uniform(0.0, 2.5))) for _ in range(n)]
        merged = _merge_arcs(arcs)
        assert np.array_equal(_removed_mask(grid, merged),
                              _removed_mask(grid, arcs))
        # output arcs are pairwise disjoint: widths add up on the mask
        if merged and merged[0][1] < TWO_PI:
            total = sum(w for _, w in merged)
            assert _removed_mask(grid, merged).mean() \
                == pytest.approx(total / TWO_PI, abs=2e-3)


def test_removed_mask_half_open():
    arcs = ((1.0, 0.5),)
    inside, at_start, at_end = _removed_mask(
        np.array([1.2, 1.0, 1.5]), arcs)
    assert inside and at_start and not at_end


def test_kept_arcs_complement():
    assert _kept_arcs(()) == ((0.0, TWO_PI),)
    assert _kept_arcs(((0.0, TWO_PI),)) == ()
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, TWO_PI, 5000, endpoint=False) + 1e-4
    for _ in range(50):
        n = int(rng.integers(1, 6))
        removed = _merge_arcs(
            [(float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, 2.0)))
             for _ in range(n)])
        kept = _kept_arcs(removed)
        if removed and removed[0][1] >= TWO_PI:
            assert kept == ()
            continue
        assert np.array_equal(_removed_mask(grid, kept),
                              ~_removed_mask(grid, removed))
        both = sum(w for _, w in removed) + sum(w for _, w in kept)
        assert both == pytest.approx(TWO_PI, rel=1e-12)


def test_quantize9_idempotent():
    rng = np.random.default_rng(3)
    a = rng.normal(scale=30.0, size=(40, 3))
    q = _quantize9(a)
    assert np.array_equal(_quantize9(q), q)
    assert np.max(np.abs(q - a) / np.abs(a)) < 1e-8


# --- removal arcs and ground truth ---

def test_removal_arcs_keep_fraction():
    assert removal_arcs(PhantomSpec(keep_fraction=1.0)) == ()
    assert removal_arcs(PhantomSpec(keep_fraction=0.0)) == ((0.0, TWO_PI),)
    (s, w), = removal_arcs(PhantomSpec(keep_fraction=0.5))
    # removed arc is centered on angle zero
    assert math.isclose(s, 1.5 * math.pi) and math.isclose(w, math.pi)


def test_removal_arcs_patchiness():
    spec = PhantomSpec(keep_fraction=0.75, patchiness=3, seed=7)
    arcs = removal_arcs(spec)
    assert len(arcs) == 4
    assert removal_arcs(spec) == arcs  # deterministic
    other = removal_arcs(PhantomSpec(keep_fraction=0.75, patchiness=3,
                                     seed=8))
    assert other != arcs
    assert expected_rgm(spec) > expected_rgm(PhantomSpec(keep_fraction=0.75))


def test_expected_rgm_extremes_exact():
    assert expected_rgm(PhantomSpec(keep_fraction=1.0)) == 0.0
    assert expected_rgm(PhantomSpec(keep_fraction=0.0)) == 1.0


@pytest.mark.parametrize("shape", ["disk-with-hole", "dome-with-hole"])
@pytest.mark.parametrize("keep", [0.3, 0.5, 0.8])
def test_expected_rgm_against_quadrature(shape, keep):
    spec = PhantomSpec(base_shape=shape, keep_fraction=keep)
    mid = 0.5 * (BAND_INNER_MM + BAND_OUTER_MM)

    def ds(theta):
        r = _rim_radius(theta) + mid
        dr = -HOLE_RADIUS * OVALITY * math.sin(theta)
        if shape == "disk-with-hole":
            return math.hypot(r, dr)
        return DOME_RADIUS * math.hypot(dr / DOME_RADIUS,
                                        math.sin(r / DOME_RADIUS))

    alpha = math.pi * (1.0 - keep)
    removed = 2.0 * quad(ds, 0.0, alpha, limit=200)[0]  # even integrand
    total = 2.0 * quad(ds, 0.0, math.pi, limit=200)[0]
    assert expected_rgm(spec) == pytest.approx(removed / total, abs=2e-4)


def test_expected_rgm_plate_half():
    spec = PhantomSpec(base_shape="two-hole-plate",
                       removed_intervals=((0.0, math.pi),))
    # upper half plane removes half of each centerline arc
    assert expected_rgm(spec) == pytest.approx(0.5, abs=1e-3)


def test_expected_rgm_monotone_in_keep():
    vals = [expected_rgm(PhantomSpec(keep_fraction=k))
            for k in (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_centerline_weights_positive():
    for shape in ("disk-with-hole", "dome-with-hole", "two-hole-plate"):
        theta, w = _centerline_samples(PhantomSpec(base_shape=shape))
        assert theta.shape == w.shape
        assert (w > 0.0).all()


# --- spec validation ---

@pytest.mark.parametrize("kw", [
    {"base_shape": "torus"},
    {"keep_fraction": 1.5},
    {"keep_fraction": -0.1},
    {"target_edge_mm": -1.0},
    {"blood_pool_sd": -10.0},
    {"target_edge_mm": 0.0},
    {"patchiness": -1},
    {"taper": (1.0, 2.0, 3.0)},
    {"blood_pool_sd": 0.0},
])
def test_spec_validation(kw):
    with pytest.raises(ValueError):
        PhantomSpec(**kw)


@pytest.mark.parametrize("field, kw", [
    ("target_edge_mm", {"target_edge_mm": math.inf}),
    ("target_edge_mm", {"target_edge_mm": math.nan}),
    ("keep_fraction", {"keep_fraction": math.nan}),
    ("keep_fraction", {"keep_fraction": math.inf}),
    ("blood_pool_mean", {"blood_pool_mean": -math.inf}),
    ("blood_pool_sd", {"blood_pool_sd": math.nan}),
    ("blood_pool_sd", {"blood_pool_sd": math.inf}),
    ("taper", {"taper": (math.nan, 9.0)}),
    ("taper", {"taper": (2.5, math.inf)}),
    ("taper", {"taper": (0.0, 9.0)}),
    ("taper", {"taper": (2.5, -9.0)}),
    ("removed_intervals", {"removed_intervals": ((0.0, math.nan),)}),
    ("removed_intervals", {"removed_intervals": ((math.inf, 1.0),)}),
    ("removed_intervals", {"removed_intervals": ((0.0, 1.0, 2.0),)}),
    ("removed_intervals", {"removed_intervals": ((0.0, -1.0),)}),
    ("patchiness", {"patchiness": 1.5}),
    ("patchiness", {"patchiness": True}),
    ("seed", {"seed": 2.0}),
    ("seed", {"seed": -1}),
    # these died with a TypeError that named nothing
    ("removed_intervals", {"removed_intervals": (0.0, 1.0)}),
    ("removed_intervals", {"removed_intervals": ((1.0, "a"),)}),
    ("removed_intervals", {"removed_intervals": 1.0}),
    ("removed_intervals", {"removed_intervals": ((0.0, True),)}),
    # a float taper died with a TypeError from len(); a list was accepted
    # and left the frozen spec unhashable
    ("taper", {"taper": 5.0}),
    ("taper", {"taper": [2.5, 9.0]}),
    ("removed_intervals", {"removed_intervals": [(0.5, 1.0)]}),
    ("removed_intervals", {"removed_intervals": ([0.5, 1.0],)}),
])
def test_spec_names_the_field_it_refuses(field, kw):
    # each of these once built a phantom with a meaningless truth or died
    # deep inside the build
    with pytest.raises(ValueError, match=field):
        PhantomSpec(**kw)


@pytest.mark.parametrize("kw", [
    {},
    {"taper": (2.5, 9.0)},
    {"taper": (np.float64(2.5), 9)},
    {"removed_intervals": ()},
    {"removed_intervals": ((0.5, 1.0), (np.float32(3.0), 0))},
    {"keep_fraction": 0.75, "patchiness": 4, "taper": (2.5, 9.0),
     "seed": np.int64(3)},
])
def test_accepted_spec_is_hashable(kw):
    spec = PhantomSpec(**kw)
    assert hash(spec) == hash(PhantomSpec(**kw))
    assert {spec: 1}[PhantomSpec(**kw)] == 1


def test_phantom_names_unique():
    specs = [PhantomSpec(base_shape=s, keep_fraction=k, patchiness=p,
                         seed=seed)
             for s in ("disk-with-hole", "two-hole-plate")
             for k in (0.25, 0.5) for p in (0, 2) for seed in (0, 1)]
    names = [_phantom_name(s) for s in specs]
    assert len(set(names)) == len(names)


# --- built meshes ---

def _scar_mask(mesh, spec, factor=3.3):
    return threshold_mask(mesh.intensity, spec.blood_pool_mean,
                          spec.blood_pool_sd, factor)


def _ring_layout(spec):
    """Reproduce the ring lattice indexing from the recipe arithmetic."""
    width = BAND_OUTER_MM + 8.0
    n_s = max(2, int(round(width / spec.target_edge_mm)) + 1)
    r_mid = HOLE_RADIUS + 0.5 * width
    n_t = max(16, 4 * math.ceil(TWO_PI * r_mid / (4.0 * spec.target_edge_mm)))
    svals = np.linspace(0.0, width, n_s)
    return n_s, n_t, svals


@pytest.mark.parametrize("keep", [0.0, 0.3, 0.5, 1.0])
def test_ring_scar_set_matches_recipe(keep):
    spec = PhantomSpec(keep_fraction=keep)
    mesh, _, truth = make_phantom(spec)
    n_s, n_t, svals = _ring_layout(spec)
    assert mesh.n_vertices == n_s * n_t
    idx = np.arange(mesh.n_vertices)
    ss = svals[idx // n_t]
    theta = TWO_PI * (idx % n_t) / n_t
    band = (ss >= BAND_INNER_MM - 1e-9) & (ss <= BAND_OUTER_MM + 1e-9)
    want = band & ~_removed_mask(theta, truth.removed_arcs)
    assert np.array_equal(_scar_mask(mesh, spec), want)


def test_keep_one_is_single_encircling_patch():
    spec = PhantomSpec(keep_fraction=1.0)
    mesh, _, truth = make_phantom(spec)
    mask = _scar_mask(mesh, spec)
    labeling = connected_components(mesh, mask)
    assert labeling.count == 1
    assert truth.expected_rgm == 0.0
    # the patch passes through every quarter sector
    assert set(np.unique(mesh.region[mask])) == {1, 2, 3, 4}


def test_keep_zero_has_no_scar():
    spec = PhantomSpec(keep_fraction=0.0)
    mesh, _, truth = make_phantom(spec)
    assert not _scar_mask(mesh, spec).any()
    assert truth.expected_rgm == 1.0
    assert truth.designed_gap_count == 1


@pytest.mark.parametrize("shape", SHAPES)
def test_an_edge_too_coarse_for_the_band_is_refused(shape):
    # at a 5 mm edge no lattice row falls in the 2-4 mm band: the mesh would
    # carry no scar while its truth reads a partly kept band
    spec = PhantomSpec(base_shape=shape, target_edge_mm=5.0)
    with pytest.raises(ValueError, match="kept scar band"):
        make_phantom(spec)
    # with the whole band removed, no scar is what the truth says
    bare = dataclasses.replace(spec, keep_fraction=0.0)
    mesh, _, truth = make_phantom(bare)
    assert truth.expected_rgm == 1.0
    assert not _scar_mask(mesh, bare).any()


def test_keep_half_is_one_half_arc_patch():
    spec = PhantomSpec(keep_fraction=0.5)
    mesh, _, _ = make_phantom(spec)
    mask = _scar_mask(mesh, spec)
    assert connected_components(mesh, mask).count == 1
    theta = np.arctan2(mesh.vertices[mask, 1], mesh.vertices[mask, 0]) \
        % TWO_PI
    # kept arc spans [pi/2, 3pi/2)
    assert theta.min() >= 0.5 * math.pi - 1e-6
    assert theta.max() < 1.5 * math.pi + 1e-6
    # scar occupies the full band depth: three rings at 1 mm spacing
    off = np.hypot(mesh.vertices[mask, 0], mesh.vertices[mask, 1]) \
        - _rim_radius(theta)
    assert len(np.unique(np.round(off, 3))) == 3


def test_designed_gap_counts():
    assert make_phantom(PhantomSpec(keep_fraction=1.0))[2] \
        .designed_gap_count == 0
    assert make_phantom(PhantomSpec(keep_fraction=0.5))[2] \
        .designed_gap_count == 1
    spec = PhantomSpec(keep_fraction=0.75, patchiness=3, seed=7)
    assert make_phantom(spec)[2].designed_gap_count == 4


def test_labels_partition_and_seeds():
    for shape in ("disk-with-hole", "dome-with-hole", "two-hole-plate"):
        mesh, config, truth = make_phantom(PhantomSpec(base_shape=shape))
        assert set(np.unique(mesh.region)) == {1, 2, 3, 4}
        spec = config.areas[0]
        assert spec.vein_seeds == truth.seed_vertices
        for v in truth.seed_vertices:
            assert 0 <= v < mesh.n_vertices
        assert mesh.name.startswith(f"synthetic {shape}")


def test_edge_lengths_near_target():
    for shape in ("disk-with-hole", "two-hole-plate"):
        mesh, _, _ = make_phantom(PhantomSpec(base_shape=shape))
        e = mesh.edges
        lengths = np.linalg.norm(mesh.vertices[e[:, 0]]
                                 - mesh.vertices[e[:, 1]], axis=1)
        assert 0.5 < lengths.mean() < 2.0
        assert lengths.max() < 3.0


def test_edge_refinement_thickens_band():
    coarse = PhantomSpec(keep_fraction=0.5)
    fine = PhantomSpec(keep_fraction=0.5, target_edge_mm=0.5)
    n_coarse = _scar_mask(*make_phantom(coarse)[:1], coarse).sum()
    n_fine = _scar_mask(*make_phantom(fine)[:1], fine).sum()
    # halving the edge length roughly quadruples scar vertex count
    assert 3.0 < n_fine / n_coarse < 5.0


@pytest.mark.parametrize("shape, keep, edge, taper", [
    ("disk-with-hole", 0.5, 1.0, (2.5, 8.0)),
    ("disk-with-hole", 0.75, 1.0, (2.5, 9.0)),
    ("dome-with-hole", 0.75, 1.0, (2.5, 9.0)),
    # a scar vertex 2 ulp before its kept arc's start gets the edge level
    ("two-hole-plate", 0.75, 0.8, (2.5, 9.0)),
], ids=["disk-keep0.5", "disk", "dome", "plate-edge0.8"])
def test_taper_levels_ramp_to_center(shape, keep, edge, taper):
    spec = PhantomSpec(base_shape=shape, keep_fraction=keep,
                       target_edge_mm=edge, taper=taper)
    mesh, _, _ = make_phantom(spec)
    sharp = dataclasses.replace(spec, taper=None)
    scar = _scar_mask(make_phantom(sharp)[0], sharp)
    sds = (mesh.intensity - spec.blood_pool_mean) / spec.blood_pool_sd
    # every scar vertex of the untapered phantom has a level in range
    assert sds[scar].min() >= taper[0] - 1e-6
    assert sds[scar].max() <= taper[1] + 1e-6
    # peak sits at the kept arc center, angle pi
    peak = np.argmax(mesh.intensity)
    theta = math.atan2(mesh.vertices[peak, 1], mesh.vertices[peak, 0]) \
        % TWO_PI
    assert abs(theta - math.pi) < 0.1
    healthy = mesh.intensity[~scar]
    assert np.allclose(healthy, spec.blood_pool_mean
                       - 8.0 * spec.blood_pool_sd)


def test_plate_scar_respects_band_offset():
    spec = PhantomSpec(base_shape="two-hole-plate", keep_fraction=0.6)
    mesh, _, truth = make_phantom(spec)
    mask = _scar_mask(mesh, spec)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    d = np.minimum(np.hypot(x + 7.5, y), np.hypot(x - 7.5, y))
    off = d - 6.0
    band = (off >= BAND_INNER_MM - 1e-9) & (off <= BAND_OUTER_MM + 1e-9)
    theta = np.arctan2(y, x) % TWO_PI
    want = band & ~_removed_mask(theta, truth.removed_arcs)
    assert np.array_equal(mask, want)


# --- probe grids ---

def test_plane_grid_counts():
    m = plane_grid(5, 4, spacing=2.0)
    assert m.n_vertices == 20
    assert m.n_triangles == 2 * 4 * 3
    assert np.allclose(m.vertices[:, 2], 0.0)
    assert len(m.boundary_loops()) == 1


@pytest.mark.parametrize("field, kw", [
    ("subdivisions", {"subdivisions": -1}),
    ("subdivisions", {"subdivisions": 1.0}),
    ("subdivisions", {"subdivisions": True}),
    ("radius", {"radius": 0.0}),
    ("radius", {"radius": math.nan}),
])
def test_icosphere_names_the_argument_it_refuses(field, kw):
    # icosphere(-1) once returned the level-0 sphere
    with pytest.raises(ValueError, match=field):
        icosphere(**kw)


def test_icosphere_radius_and_euler():
    m = icosphere(subdivisions=3, radius=25.0)
    assert np.allclose(np.linalg.norm(m.vertices, axis=1), 25.0)
    # closed surface: V - E + F == 2
    assert m.n_vertices - len(m.edges) + m.n_triangles == 2
    assert len(m.boundary_loops()) == 0
