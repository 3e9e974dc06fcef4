"""Cohort aggregation, Welch statistics, histograms, regional maps, CSVs."""

import csv
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pvgap.cli import main
from pvgap.cohort import (METRICS, WelchResult, _student_p, aggregate,
                          area_stats, histogram, metric_values, one_vs_rest,
                          regional_map, welch_t_test, write_area_stats_csv,
                          write_cohort_csv, write_histogram_csv,
                          write_regional_csv, write_tests_csv)
from pvgap.errors import ConfigError
from pvgap.mesh import SurfaceMesh, load_mesh, save_mesh
from pvgap.sweep import case_report, run_case
from pvgap.synth import PhantomSpec, make_phantom

COHORT = Path(__file__).resolve().parent / "data" / "cohort"

# welch_t_test oracle triples: (sample_a, sample_b, t, df, p), frozen from
# an established reference implementation
FROZEN = [
    ([1, 2, 3, 4, 5],
     [2, 3, 4, 5, 6],
     -1.0, 8.0, 0.34659350708733416),
    ([-1.862262, 1.308797, -0.284219, -2.026125, -1.543468, 0.070108,
      0.580452, -0.466158, 2.103867, -0.240294, -1.57312, 0.168355,
      -1.445617, 0.170895, 1.454862, 0.042864, 1.306333, -0.553102,
      0.973079, -0.588155, 1.824711, 0.880625],
     [0.302611, -0.047853, 2.051758, 3.169439, -2.013265, 0.676504,
      -2.14723, -0.272828, 4.205731, 1.791372, 3.164198, -0.67198,
      -0.388164, 4.488812, -0.547097, 2.391266, 3.969479],
     -2.0185214239124476, 23.83335970092685, 0.05492567323725182),
    ([1.383808, 2.616428, 3.087118, 2.360573, 2.027445, 2.320748, 2.296615,
      2.134228, 2.806831, 3.198025, 1.310822, 3.641998],
     [2.844904, 3.748727, 4.69002, 4.420258, 5.168388, 5.390847, 4.671168,
      3.656267, 6.813977, 3.965152, 5.264026, 4.33046, 4.775681, 2.777037,
      3.751449, 5.59741, 3.294751, 3.593528, 5.218027, 3.932724, 4.055084,
      3.880113, 4.866075, 4.800998, 5.055431],
     -7.304632018969836, 28.279416865751312, 5.587732376254876e-08),
    ([-0.267619, 0.611505, -0.462151, -0.684399, -0.098979, -0.833982,
      1.967736, -0.361208, 1.912609, 0.270232, 1.341945, 0.786338,
      -1.093078, 0.743783, -2.955631, -1.016743, -0.418251, 0.935191,
      -0.023871, 2.396092, 1.171168, 2.842539, 1.329579, -0.228218,
      1.675471],
     [-4.583924, -2.886203, -2.978828, 1.446043, 2.244069, 0.249092,
      4.179561, -2.320675, -4.900998, -1.624277, 2.523286, 6.336387,
      -1.614652, -0.69558, -0.058918, 1.399243, 0.573573, 2.590885,
      -0.976491],
     0.6097069947387915, 23.422597188106163, 0.5479256988743946),
    ([3.599802, 5.071479, 5.063825, 5.268502, 6.206102, 5.552078, 3.711686,
      3.939691, 3.994986, 4.823802, 4.169034, 4.750853, 5.519986],
     [-0.010015, -0.71542, 0.635033, 2.775872, 1.83295, -2.316963, -2.26424,
      -1.83986, -1.950938, -0.918789, -0.698662, 0.894744, -0.199031,
      2.709481, -0.695553, 0.335612, -3.382019, -1.738681, 3.127136,
      1.359979],
     10.391238830674311, 27.911255737077465, 4.248480346698135e-11),
    ([0.03413, 2.764987, -2.151222, 0.178245, -2.088446, 1.062778, 3.132561,
      -4.265503, 1.370311, -0.72653, -3.503198, -3.164257, 1.877384,
      4.901606, -2.925328, -3.63962],
     [-2.636186, -1.597231, -4.624251, -0.876677, -4.869742, -2.065432,
      -2.074491, -5.293519],
     2.7939057058442014, 20.991752815754236, 0.010879798694620158),
    ([-3.686291, 0.993353, -1.286446, -0.983773, -1.125251, 3.075767,
      4.938385, 2.873805, 0.443624, 0.444086, 3.080551, -4.538806,
      -6.444009, -0.012228, -0.417967, -4.092891, 0.889816, 0.663353,
      -2.497421, -2.488908, -9.713804],
     [0.83285, 9.435987, -1.018367, 4.827878, -1.126538, 6.395545, 5.095126,
      0.016486, 0.813663, 2.885217, 0.117422, -0.511799, 2.170653, 6.095642,
      2.862678, 3.713734, 2.530493, 2.421316, 0.458698],
     -3.4800784763291444, 37.70752045160329, 0.0012825785835056441),
    ([-4.123341, -0.549813, 1.773524, 1.27868, -1.878112, -2.390178,
      -2.209098, -2.047613, -3.031902, -3.771677, -0.912102, -1.053458,
      0.311662, -2.801366, -3.356362, -3.299041, -0.491983, -0.735231],
     [-1.641623, -2.137968, -2.300607, -1.645971, -3.065869, -3.892566,
      -2.577804, -3.27515, -3.234368, -4.262966, -1.25915, -1.437647,
      -3.479012, -2.71743],
     2.1373833131846434, 27.5044525399483, 0.041603569970639236),
    ([1.596734, 2.339042, 0.092987, 1.475283, 2.326285, 0.053103, 0.602787,
      1.950501, 1.7205, 0.430649, 1.592907, 1.965691, 1.026243, 0.215438,
      0.608182, 1.887053, 0.502425, -0.096883, -0.480525, 0.525186,
      3.648943, 0.354557],
     [3.177443, 2.268389, 5.581347, 4.3772, 2.790556, 3.588494, 3.779545,
      3.843427, 3.48832, 2.175288, 1.645414, 2.556803, 1.663142, 2.474316,
      3.105416, 1.561895, 6.141272, 3.692572, 0.237412, 0.785389, 4.713878],
     -4.953080620573067, 35.254239682843036, 1.818135118799594e-05),
    ([0.890674, 1.199473, 0.423633, 0.608694, 0.25105, 0.952035, 0.963812,
      1.349538, 1.115583, 0.906723, 1.733661, 1.088016, -0.198525, 0.679575,
      0.803634, 0.86736, 0.781083, 1.590921, 0.16092, 0.747576, 1.624459,
      2.330797, 1.833763, 0.846733, 0.603197],
     [1.738478, -0.253936, 1.245833, 1.584467, 1.524853, 1.197026,
      -0.233203, 0.139037, 0.978982, 0.788918, 1.285723, 2.340156, 1.809243,
      0.205558, 1.333785],
     -0.34680990532773553, 22.900355121257093, 0.7319008189527548),
]


def _area(nauc, *, gaps=(), strategy="independent", labels=(1, 2),
          count=1.0, length=10.0):
    per = [{"factor": 2.0, "rgm": 0.0, "gap_length_mm": 0.0,
            "total_length_mm": 80.0, "gap_count": 0, "gaps": []},
           {"factor": 3.3, "rgm": nauc, "gap_length_mm": length,
            "total_length_mm": 80.0, "gap_count": len(gaps),
            "gaps": [{"length_mm": ln, "midpoint_region": reg,
                      "regions": [reg], "wraps_seam": False}
                     for ln, reg in gaps]}]
    return {"strategy": strategy, "labels": list(labels), "status": "ok",
            "per_threshold": per, "rgm_nauc": nauc,
            "gap_count_mean": count, "gap_count_sd": 0.0,
            "gap_length_mm_mean": length, "gap_length_mm_sd": 0.0}


def _failed_area(strategy="independent", labels=(1, 2)):
    return {"strategy": strategy, "labels": list(labels),
            "status": "failed", "error": "no scar"}


def _report(case_id, areas):
    return {"format": "gap-report 1", "mesh_name": case_id,
            "thresholds": [2.0, 3.3], "reference_threshold": 3.3,
            "blood_pool": {"mean": 100.0, "sd": 10.0},
            "areas": areas, "veins": {}}


# --- Welch test ---

def test_welch_against_frozen_reference():
    for a, b, t, df, p in FROZEN:
        res = welch_t_test(a, b)
        assert res.t == pytest.approx(t, rel=1e-9)
        assert res.df == pytest.approx(df, rel=1e-9)
        assert res.p == pytest.approx(p, rel=1e-9)


def test_welch_antisymmetry():
    for a, b, *_ in FROZEN:
        fwd, rev = welch_t_test(a, b), welch_t_test(b, a)
        assert fwd.t == -rev.t
        assert fwd.df == rev.df
        assert fwd.p == rev.p


def test_welch_identical_samples():
    res = welch_t_test([0.3, 0.3, 0.3], [0.3, 0.3, 0.3, 0.3])
    assert res == WelchResult(t=0.0, df=5.0, p=1.0)


def test_welch_degenerate_and_short():
    with pytest.raises(ValueError):
        welch_t_test([0.3, 0.3], [0.4, 0.4])
    with pytest.raises(ValueError):
        welch_t_test([0.3], [0.4, 0.5])
    with pytest.raises(ValueError):
        welch_t_test([[0.3, 0.4]], [[0.4, 0.5]])


@pytest.mark.parametrize("spread", [1e-80, 1e-82, 1e-150])
def test_welch_df_stays_finite_for_tiny_spreads(spread):
    # one sample's variance alone makes se2, so df is n - 1 = 2 exactly;
    # squaring se2 itself underflowed: df read 2.0089 at 1e-80, and nan
    # (p nan, with a RuntimeWarning) at 1e-82 and below
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = welch_t_test([0.0, spread, 2 * spread], [5.0, 5.0, 5.0])
    assert res.df == 2.0
    assert math.isfinite(res.p) and res.p < 1e-100


def test_welch_null_distribution():
    # same-distribution draws should rarely reach small p-values
    rng = np.random.default_rng(99)
    calm = 0
    for _ in range(500):
        res = welch_t_test(rng.normal(0.5, 0.05, 12),
                           rng.normal(0.5, 0.05, 15))
        if res.p > 0.01:
            calm += 1
    assert calm >= 480


def test_student_p_matches_scipys_stdtr():
    """The two-sided p-value `_student_p(t, df)` against scipy's
    `2 * stdtr(df, -|t|)` on 100,000 seeded draws: df log-uniform in
    [1, 5000], |t| log-uniform in [1e-4, 100]. Measured: largest relative
    difference 3.3e-11 (at df 3702, p 0.085; 3.5e-13 for df < 100), and
    no draw whose p the tables' `%.6g` would write differently. 1,322
    draws have p below the smallest normal double, where neither is
    accurate to 6 digits; both are below it there."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(0)
    n = 100_000
    df = 10.0 ** rng.uniform(0.0, math.log10(5000.0), n)
    t = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.0, 2.0, n)
    got = np.array([_student_p(a, b) for a, b in zip(t.tolist(),
                                                      df.tolist())])
    want = 2.0 * special.stdtr(df, -np.abs(t))
    normal = want >= sys.float_info.min
    assert normal.sum() > 0.95 * n
    assert (got[~normal] < sys.float_info.min).all()
    got, want = got[normal], want[normal]
    assert (np.abs(got - want) / want).max() < 1e-9
    assert [f"{p:.6g}" for p in got] == [f"{p:.6g}" for p in want]


def test_student_p_at_its_ends():
    # equal means with spread: t = 0, p = 1 exactly, as scipy gives
    assert welch_t_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]).p == 1.0
    # a t whose square overflows, with a finite df: p = 0, as scipy gives
    res = welch_t_test([0.0, 1e-80, 2e-80], [1e100, 1e100, 1e100])
    assert math.isinf(res.t * res.t) and math.isfinite(res.df)
    assert res.p == 0.0
    assert math.isnan(_student_p(1.0, math.nan))


def test_import_loads_no_scipy_stats_or_special(tmp_path):
    # pvgap needs numpy alone: a fresh process loads no scipy module on
    # import, nor in any command, a cohort that runs Welch tests included
    code = ("import sys, pvgap, pvgap.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    ph = tmp_path / "ph"
    assert main(["synth", "--keep", "0.5", "--out", str(ph),
                 "--volume", str(ph / "volume.vol")]) == 0
    mesh = load_mesh(ph / "mesh.vtk")
    save_mesh(SurfaceMesh(mesh.vertices, mesh.triangles, region=mesh.region,
                          name=mesh.name), tmp_path / "bare.vtk")
    quantify = ["quantify", "--config", str(ph / "regions.cfg"),
                "--bp-mean", "100", "--bp-sd", "10"]
    commands = [
        ["synth", "--keep", "0.5", "--out", str(tmp_path / "again"),
         "--volume", str(tmp_path / "again" / "volume.vol")],
        ["project", "--mesh", str(tmp_path / "bare.vtk"), "--volume",
         str(ph / "volume.vol"), "--out", str(tmp_path / "projected.vtk")],
        [*quantify, "--mesh", str(ph / "mesh.vtk"),
         "--out", str(tmp_path / "r.json")],
        [*quantify, "--mesh", str(tmp_path / "bare.vtk"), "--volume",
         str(ph / "volume.vol"), "--out", str(tmp_path / "rv.json")],
        ["cohort", "--reports", str(COHORT / "reports"),
         "--out", str(tmp_path / "tables")]]
    code = ("import json, sys; from pvgap.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    rc = main(argv)\n"
            "    print(rc, sorted(m for m in sys.modules"
            " if m.startswith('scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["0 []"] * len(commands)
    # the cohort ran its Welch tests and wrote the golden p-values
    assert (tmp_path / "tables" / "tests.csv").read_bytes() \
        == (COHORT / "tables" / "tests.csv").read_bytes()


# --- aggregation ---

def test_aggregate_closed_form():
    reports = [_report("c1", {"A": _area(0.2)}),
               _report("c2", {"A": _area(0.4)})]
    table = aggregate(reports)
    assert table.n_cases == 2 and table.areas == ("A",)
    assert [r.case_id for r in table.rows] == ["c1", "c2"]
    stats = area_stats(table)["A"]
    assert stats["rgm_nauc_mean"] == pytest.approx(0.3)
    assert stats["rgm_nauc_sd"] == pytest.approx(math.sqrt(0.02))
    assert stats["n_rgm_nauc"] == 2


def test_aggregate_single_case_sd_zero():
    table = aggregate([_report("c1", {"A": _area(0.2)})])
    stats = area_stats(table)["A"]
    assert stats["rgm_nauc_sd"] == 0.0


def test_aggregate_rejections():
    with pytest.raises(ConfigError):
        aggregate([])
    dup = [_report("c1", {"A": _area(0.2)}),
           _report("c1", {"A": _area(0.4)})]
    with pytest.raises(ConfigError):
        aggregate(dup)
    clash = [_report("c1", {"A": _area(0.2)}),
             _report("c2", {"A": _area(0.4, strategy="joint")})]
    with pytest.raises(ConfigError):
        aggregate(clash)
    relabeled = [_report("c1", {"A": _area(0.2)}),
                 _report("c2", {"A": _area(0.4, labels=(3, 4))})]
    with pytest.raises(ConfigError):
        aggregate(relabeled)
    # a missing key or a value of the wrong type is a bad report, not a crash
    unreferenced = _report("c1", {"A": _area(0.2)})
    del unreferenced["reference_threshold"]
    with pytest.raises(ConfigError, match="reference_threshold"):
        aggregate([unreferenced])
    for ref in (math.nan, math.inf, "3.3", True, None):
        bad = _report("c1", {})
        bad["reference_threshold"] = ref
        with pytest.raises(ConfigError, match="reference_threshold"):
            aggregate([bad])
    for areas in ([], {"A": [0.2]}, {"A": {**_area(0.2), "rgm_nauc": None}}):
        with pytest.raises(ConfigError, match="malformed"):
            aggregate([_report("c1", areas)])


@pytest.mark.parametrize("field, bad", [
    ("rgm_nauc", True), ("rgm_nauc", "0.25"), ("rgm_nauc", math.inf),
    ("rgm_nauc", math.nan), ("rgm_nauc", 1.5), ("rgm_nauc", -0.1),
    ("gap_count_mean", "3"), ("gap_count_mean", -1.0),
    ("gap_length_mm_mean", math.inf), ("labels", [True, 2.5]),
    ("labels", [-1]), ("labels", "12"), ("status", "done"),
    ("strategy", "mixed"), ("midpoint_region", 2.7),
    ("midpoint_region", -1), ("midpoint_region", True), ("length_mm", "5"),
    ("length_mm", -5.0), ("factor", True),
])
def test_aggregate_refuses_a_report_value_off_the_input_rule(field, bad):
    # numbers are finite and never a bool or a string, rgm_nauc lies in
    # [0, 1], lengths and counts are >= 0, labels and regions are counts
    area = _area(0.2, gaps=((4.0, 1),))
    if field in ("length_mm", "midpoint_region"):
        area["per_threshold"][1]["gaps"][0][field] = bad
    elif field == "factor":
        area["per_threshold"][0][field] = bad
    else:
        area[field] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^malformed gap report 'c1': "
                           f"area 'A' {field} must be"):
            aggregate([_report("c1", {"A": area})])


@pytest.mark.parametrize("name, area", [
    ("x/../../../escaped", _area(0.2)), ("a\\b", _failed_area()),
    ("Left PV", _area(0.2)),
], ids=["slash", "backslash-failed", "space"])
def test_aggregate_refuses_an_area_name_off_the_rule(name, area):
    # the name becomes the file hist_<name>.csv, so a failed area counts too
    with pytest.raises(ConfigError, match="^malformed gap report 'c1': area "
                       f"{re.escape(repr(name))} name must be"):
        aggregate([_report("c1", {"A": _area(0.4), name: area})])


def test_aggregate_skips_failed_areas():
    reports = [_report("c1", {"A": _area(0.2), "B": _failed_area(
                   labels=(5, 6))}),
               _report("c2", {"A": _area(0.6), "B": _area(0.1,
                   labels=(5, 6))})]
    table = aggregate(reports)
    assert table.areas == ("A", "B")
    assert metric_values(table, "A", "rgm_nauc").tolist() == [0.2, 0.6]
    assert metric_values(table, "B", "rgm_nauc").tolist() == [0.1]
    stats = area_stats(table)
    assert stats["B"]["n_rgm_nauc"] == 1
    with pytest.raises(ConfigError):
        metric_values(table, "Z", "rgm_nauc")


def test_aggregate_order_invariant_stats():
    reports = [_report(f"c{i}", {"A": _area(0.1 + 0.05 * i)})
               for i in range(8)]
    fwd = area_stats(aggregate(reports))["A"]
    rev = area_stats(aggregate(reports[::-1]))["A"]
    for key in fwd:
        if isinstance(fwd[key], float):
            assert fwd[key] == pytest.approx(rev[key], rel=1e-12)
        else:
            assert fwd[key] == rev[key]


def test_aggregate_accepts_pipeline_report():
    spec = PhantomSpec(keep_fraction=0.5)
    mesh, config, _ = make_phantom(spec)
    case = run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd,
                    factors=(2.0, 3.3))
    table = aggregate([case_report(case)])
    assert table.n_cases == 1 and table.areas == ("LSPV",)
    (val,) = metric_values(table, "LSPV", "rgm_nauc")
    assert 0.0 < val < 1.0


# --- one versus rest ---

def test_one_vs_rest_pools_other_independents():
    a_vals = [0.50, 0.55, 0.52, 0.48, 0.61]
    b_vals = [0.20, 0.25, 0.22, 0.28, 0.21]
    c_vals = [0.30, 0.35, 0.32, 0.38, 0.31]
    reports = []
    for i in range(5):
        reports.append(_report(f"c{i}", {
            "A": _area(a_vals[i]),
            "B": _area(b_vals[i], labels=(3, 4)),
            "C": _area(c_vals[i], labels=(5, 6)),
            "J": _area(0.99, strategy="joint", labels=(7, 8)),
        }))
    table = aggregate(reports)
    res = one_vs_rest(table, "A")
    want = welch_t_test(a_vals, b_vals + c_vals)
    # joint areas stay out of the pooled rest
    assert res == want
    assert res.p < 1e-4


def test_one_vs_rest_shifted_is_significant():
    rng = np.random.default_rng(5)
    reports = []
    for i in range(12):
        reports.append(_report(f"c{i}", {
            "A": _area(float(np.clip(rng.normal(0.9, 0.01), 0, 1))),
            "B": _area(float(np.clip(rng.normal(0.3, 0.01), 0, 1)),
                       labels=(3, 4)),
        }))
    res = one_vs_rest(aggregate(reports), "A")
    assert res.p < 1e-6 and res.t > 0


def test_one_vs_rest_needs_a_peer():
    table = aggregate([_report("c1", {"A": _area(0.2)}),
                       _report("c2", {"A": _area(0.3)})])
    with pytest.raises(ConfigError):
        one_vs_rest(table, "A")


# --- histogram ---

def test_histogram_bin_rules():
    counts = histogram([0.0, 0.05, 0.1, 0.95, 1.0])
    assert counts.tolist() == [2, 1, 0, 0, 0, 0, 0, 0, 0, 2]
    assert histogram([]).tolist() == [0] * 10
    with pytest.raises(ValueError):
        histogram([1.2])
    with pytest.raises(ValueError):
        histogram([-0.1])
    with pytest.raises(ValueError):
        histogram([[0.5]])


def test_each_bin_edge_lands_in_its_own_bin():
    # floor(v / 0.1) put 0.3, 0.6 and 0.7 in the bin below theirs
    for k in range(11):
        want = np.zeros(10, dtype=np.int64)
        want[min(k, 9)] = 1
        assert histogram([k / 10]).tolist() == want.tolist(), k


@pytest.mark.parametrize("args,kw,name", [
    (([0.1, math.nan],), {}, "values"),
    (([0.1, math.inf],), {}, "values"),
])
def test_histogram_names_what_it_refuses(args, kw, name):
    # nan once failed in bincount after a RuntimeWarning
    with pytest.raises(ValueError, match=name):
        histogram(*args, **kw)


def test_histogram_uniform_sampling():
    rng = np.random.default_rng(31)
    v = rng.uniform(0.0, 1.0, size=2000)
    counts = histogram(v)
    assert counts.sum() == 2000
    sigma = math.sqrt(2000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 200) < 3.0 * sigma)


# --- regional map ---

def test_regional_map_planted_region():
    reports = [_report("c1", {"A": _area(0.4, gaps=((4.0, 7),),
                                         labels=(7, 8))}),
               _report("c2", {"A": _area(0.5, gaps=((6.0, 7),),
                                         labels=(7, 8))})]
    rmap = regional_map(aggregate(reports), "independent")
    assert set(rmap) == {7, 8}
    assert rmap[7] == {"percent_patients": 100.0, "total_gaps": 2,
                       "mean_gap_length_mm": 5.0}
    assert rmap[8] == {"percent_patients": 0.0, "total_gaps": 0,
                       "mean_gap_length_mm": 0.0}


def test_regional_map_strategy_filter():
    reports = [_report("c1", {
        "A": _area(0.4, gaps=((4.0, 1),)),
        "J": _area(0.2, gaps=((2.0, 9),), strategy="joint", labels=(9,)),
    })]
    table = aggregate(reports)
    indep = regional_map(table, strategy="independent")
    assert set(indep) == {1, 2}
    joint = regional_map(table, strategy="joint")
    assert set(joint) == {9}
    assert joint[9]["total_gaps"] == 1
    # no pooled map: a gap that both strategies find would count twice
    for bad in ("all", None):
        with pytest.raises(ConfigError):
            regional_map(table, strategy=bad)


def test_regional_map_multiple_gaps_per_case():
    reports = [_report("c1", {"A": _area(0.4,
                                         gaps=((4.0, 1), (6.0, 1)))}),
               _report("c2", {"A": _area(0.5, gaps=())})]
    rmap = regional_map(aggregate(reports), "independent")
    assert rmap[1] == {"percent_patients": 50.0, "total_gaps": 2,
                       "mean_gap_length_mm": 5.0}


# --- CSV emission ---

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def three_area_table():
    reports = []
    for i in range(4):
        reports.append(_report(f"c{i}", {
            "A": _area(0.1 * (i + 1), gaps=((4.0 + i, 1),), length=4.0 + i),
            "B": _area(0.05 * (i + 1), labels=(3, 4)),
            "J": _area(0.5, strategy="joint", labels=(5, 6)),
        }))
    return aggregate(reports)


def test_cohort_csv(three_area_table, tmp_path):
    path = tmp_path / "cohort.csv"
    write_cohort_csv(three_area_table, path)
    rows = _read_csv(path)
    assert rows[0] == ["case_id",
                       "A_rgm_nauc", "A_gap_count_mean",
                       "A_gap_length_mm_mean",
                       "B_rgm_nauc", "B_gap_count_mean",
                       "B_gap_length_mm_mean",
                       "J_rgm_nauc", "J_gap_count_mean",
                       "J_gap_length_mm_mean"]
    assert len(rows) == 5
    assert rows[1][0] == "c0"
    assert float(rows[1][1]) == pytest.approx(0.1)
    assert float(rows[4][4]) == pytest.approx(0.2)
    assert path.read_text().endswith("\n")


def test_area_stats_csv_and_missing_values(tmp_path):
    reports = [_report("c1", {"A": _area(0.2), "B": _failed_area(
        labels=(3, 4))})]
    path = tmp_path / "stats.csv"
    write_area_stats_csv(aggregate(reports), path)
    rows = _read_csv(path)
    assert rows[0] == ["area", "strategy", "n",
                       "rgm_nauc_mean", "rgm_nauc_sd",
                       "gap_count_mean", "gap_count_sd",
                       "gap_length_mm_mean", "gap_length_mm_sd"]
    by_area = {r[0]: r for r in rows[1:]}
    assert by_area["A"][2] == "1"
    assert float(by_area["A"][3]) == pytest.approx(0.2)
    # an area with no successful case serializes NaN cells as empty
    assert by_area["B"][2] == "0"
    assert by_area["B"][3] == "" and by_area["B"][4] == ""


def test_tests_csv(three_area_table, tmp_path):
    path = tmp_path / "tests.csv"
    write_tests_csv(three_area_table, path)
    rows = _read_csv(path)
    assert rows[0] == ["area", "metric", "t", "df", "p"]
    assert [r[0] for r in rows[1:]] == ["A", "B"]  # joint J not tested
    want = one_vs_rest(three_area_table, "A")
    assert float(rows[1][2]) == pytest.approx(want.t, rel=1e-5)
    assert float(rows[1][4]) == pytest.approx(want.p, rel=1e-5)


def test_tests_csv_header_only_for_single_independent(tmp_path):
    table = aggregate([_report("c1", {"A": _area(0.2)})])
    path = tmp_path / "tests.csv"
    write_tests_csv(table, path)
    assert _read_csv(path) == [["area", "metric", "t", "df", "p"]]


def test_histogram_csv(three_area_table, tmp_path):
    path = tmp_path / "hist_A.csv"
    write_histogram_csv(three_area_table, "A", path)
    rows = _read_csv(path)
    assert rows[0] == ["bin_low", "bin_high", "count"]
    assert len(rows) == 11
    assert sum(int(r[2]) for r in rows[1:]) == three_area_table.n_cases
    assert rows[1][:2] == ["0", "0.1"]
    assert rows[10][:2] == ["0.9", "1"]


def test_regional_csv(three_area_table, tmp_path):
    path = tmp_path / "regions.csv"
    write_regional_csv(three_area_table, path, strategy="independent")
    rows = _read_csv(path)
    assert rows[0] == ["region", "percent_patients", "total_gaps",
                       "mean_gap_length_mm"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
    got = {r[0]: r for r in rows[1:]}
    assert got["1"][1:] == ["100", "4", "5.5"]
    assert got["2"][2] == "0"
