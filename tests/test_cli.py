"""End-to-end command line runs, in process, with exit code contracts."""

import csv
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from pvgap.cli import main
from pvgap.mesh import SurfaceMesh, load_mesh, save_mesh
from pvgap.synth import TWO_PI, PhantomSpec, expected_rgm

THRESH = "2,3.3,4"
GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / \
    "tapered_patchy_report.json"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One phantom (keep 0.5) with volume, plus a baseline report."""
    root = tmp_path_factory.mktemp("cli")
    ph = root / "ph"
    assert main(["synth", "--keep", "0.5", "--out", str(ph),
                 "--volume", str(ph / "volume.vol")]) == 0
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH,
                 "--out", str(root / "report.json")]) == 0
    return root


def _report(path):
    return json.loads(path.read_text())


def test_synth_outputs(workdir):
    ph = workdir / "ph"
    assert (ph / "mesh.vtk").exists()
    assert (ph / "regions.cfg").exists()
    truth = _report(ph / "truth.json")
    assert set(truth) == {"mesh_name", "expected_rgm", "designed_gap_count",
                          "removed_arcs", "blood_pool", "seed"}
    assert truth["mesh_name"].startswith("synthetic disk-with-hole")
    assert truth["designed_gap_count"] == 1
    assert truth["expected_rgm"] == pytest.approx(
        expected_rgm(PhantomSpec(keep_fraction=0.5)))
    (arc,) = truth["removed_arcs"]
    assert arc == pytest.approx([1.5 * math.pi, math.pi])
    assert truth["blood_pool"] == {"mean": 100.0, "sd": 10.0}
    mesh = load_mesh(ph / "mesh.vtk")
    assert mesh.intensity is not None and mesh.region is not None


def test_quantify_report_matches_truth(workdir):
    report = _report(workdir / "report.json")
    truth = _report(workdir / "ph" / "truth.json")
    assert report["format"] == "gap-report 1"
    assert report["mesh_name"] == truth["mesh_name"]
    assert report["thresholds"] == [2.0, 3.3, 4.0]
    assert report["reference_threshold"] == 3.3
    entry = report["areas"]["LSPV"]
    assert entry["status"] == "ok"
    at_ref = [p for p in entry["per_threshold"] if p["factor"] == 3.3]
    assert abs(at_ref[0]["rgm"] - truth["expected_rgm"]) < 0.1


def test_quantify_without_a_volume_loads_no_scipy(workdir, tmp_path):
    # scipy is imported only by --volume projection and the cohort Welch
    # test; a fresh process shows what a quantify run loads
    ph, out = workdir / "ph", tmp_path / "report.json"
    code = ("import sys; from pvgap.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = subprocess.run(
        [sys.executable, "-c", code, "quantify",
         "--mesh", str(ph / "mesh.vtk"), "--config", str(ph / "regions.cfg"),
         "--bp-mean", "100", "--bp-sd", "10", "--thresholds", THRESH,
         "--out", str(out)], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "0 []"
    assert out.read_bytes() == (workdir / "report.json").read_bytes()


def test_reruns_are_byte_identical(workdir, tmp_path):
    ph = workdir / "ph"
    again = tmp_path / "again.json"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(again)]) == 0
    assert again.read_bytes() == (workdir / "report.json").read_bytes()
    twin = tmp_path / "twin"
    assert main(["synth", "--keep", "0.5", "--out", str(twin)]) == 0
    assert (twin / "mesh.vtk").read_bytes() \
        == (ph / "mesh.vtk").read_bytes()
    assert (twin / "truth.json").read_bytes() \
        == (ph / "truth.json").read_bytes()


def test_project_then_quantify_from_volume(workdir, tmp_path):
    ph = workdir / "ph"
    mesh = load_mesh(ph / "mesh.vtk")
    bare_path = tmp_path / "bare.vtk"
    save_mesh(SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                          region=mesh.region, name=mesh.name), bare_path)
    projected = tmp_path / "projected.vtk"
    assert main(["project", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--out", str(projected)]) == 0
    assert load_mesh(projected).intensity is not None
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)]) == 0
    got = _report(out)["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    want = _report(workdir / "report.json")
    want = want["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    assert abs(got - want) < 0.05


def test_blood_pool_from_mask_volume(workdir, tmp_path, monkeypatch):
    from pvgap import cli
    from pvgap.scar import ScalarVolume, load_volume, save_volume
    ph = workdir / "ph"
    vol = load_volume(ph / "volume.vol")
    mask = ((vol.values >= 85.0) & (vol.values <= 115.0)).astype(float)
    mask_path = tmp_path / "mask.vol"
    save_volume(ScalarVolume(values=mask, origin=vol.origin,
                             spacing=vol.spacing, direction=vol.direction),
                mask_path)
    mesh = load_mesh(ph / "mesh.vtk")
    bare_path = tmp_path / "bare.vtk"
    save_mesh(SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                          region=mesh.region, name=mesh.name), bare_path)
    out = tmp_path / "report.json"
    loaded = []

    def counting_load(path):
        loaded.append(path)
        return load_volume(path)
    monkeypatch.setattr(cli, "load_volume", counting_load)
    assert main(["quantify", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--bp-mask", str(mask_path),
                 "--config", str(ph / "regions.cfg"),
                 "--thresholds", THRESH, "--out", str(out)]) == 0
    # the volume feeds both projection and pool statistics: read once
    assert loaded == [str(ph / "volume.vol"), str(mask_path)]
    report = _report(out)
    # the pool voxels alternate 90/110, nearly balanced
    assert report["blood_pool"]["mean"] == pytest.approx(100.0, abs=0.05)
    assert report["blood_pool"]["sd"] == pytest.approx(10.0, abs=0.05)
    # scar and healthy levels sit far from every threshold, so the
    # measured ratio matches the explicit-stats run
    got = report["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    want = _report(workdir / "report.json")
    want = want["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    assert abs(got - want) < 0.05


def test_tapered_patchy_report_matches_the_golden_file(tmp_path):
    # six scar patches that change at every default factor, so each factor
    # runs new whole-mesh patch fields; the expected report was written by
    # an earlier kernel schedule, and any change that moves a report byte
    # (an ulp that flips a 6-digit rounding, a different path) fails here
    ph = tmp_path / "ph"
    assert main(["synth", "--keep", "0.75", "--patchiness", "4",
                 "--edge", "0.5", "--taper", "2.5,9", "--out", str(ph)]) == 0
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_REPORT.read_bytes()


def test_annotated_mesh_output(workdir, tmp_path):
    ph = workdir / "ph"
    out = tmp_path / "report.json"
    marked = tmp_path / "marked.vtk"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out),
                 "--annotated-mesh", str(marked)]) == 0
    back = load_mesh(marked)
    assert {"scar_2", "scar_3.3", "scar_4", "patch_id",
            "path_LSPV"} <= set(back.point_data)


@pytest.mark.parametrize("name", ["Left PV", "L\u00dcPV"])
def test_area_name_that_is_not_a_token_exits_1(name, workdir, tmp_path,
                                                capsys):
    # refused with the config, before any report or annotated mesh exists
    ph = workdir / "ph"
    cfg = json.loads((ph / "regions.cfg").read_text())
    cfg["areas"] = {name: area for area in cfg["areas"].values()}
    bad = tmp_path / "regions.cfg"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    out, marked = tmp_path / "r.json", tmp_path / "marked.vtk"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(bad), "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out),
                 "--annotated-mesh", str(marked)]) == 1
    assert "name" in capsys.readouterr().err
    assert not out.exists() and not marked.exists()


def test_verbose_flag_both_positions(workdir, tmp_path, capsys):
    ph = workdir / "ph"
    args = ["quantify", "--mesh", str(ph / "mesh.vtk"),
            "--config", str(ph / "regions.cfg"),
            "--bp-mean", "100", "--bp-sd", "10", "--thresholds", THRESH,
            "--out", str(tmp_path / "r.json")]
    assert main(["-v"] + args) == 0
    first = capsys.readouterr().err
    assert first.startswith("pvgap: ") and "LSPV" in first
    assert main(args + ["-v"]) == 0
    assert capsys.readouterr().err == first


# --- failure modes ---

def test_argument_errors_exit_1(workdir, tmp_path, capsys, recwarn):
    ph = workdir / "ph"
    base = ["quantify", "--mesh", str(ph / "mesh.vtk"),
            "--config", str(ph / "regions.cfg"),
            "--out", str(tmp_path / "r.json")]
    bp = ["--bp-mean", "100", "--bp-sd", "10"]
    # unknown flag (argparse) and help both go through SystemExit
    assert main(["quantify", "--nonsense"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    # descending thresholds name the offending flag
    assert main(base + bp + ["--thresholds", "4,3.3,2"]) == 1
    assert "--thresholds" in capsys.readouterr().err
    assert main(base + bp + ["--thresholds", "3.3"]) == 1
    # factors equal at the report's 6 significant digits
    assert main(base + bp + ["--thresholds", "2,3.3,3.3000001,5"]) == 1
    assert "--thresholds" in capsys.readouterr().err
    assert main(base + bp + ["--thresholds", "2,x"]) == 1
    # non-finite thresholds are refused before the mesh is read
    capsys.readouterr()
    assert main(base + bp + ["--thresholds=2,inf"]) == 1
    assert "--thresholds" in capsys.readouterr().err
    assert main(["quantify", "--mesh", str(tmp_path / "nope.vtk"),
                 "--out", str(tmp_path / "r.json"), *bp,
                 "--thresholds=2,inf"]) == 1
    # blood pool must come from exactly one source; refused before the mesh
    # is read
    assert main(base + ["--thresholds", THRESH]) == 1
    assert main(base + bp + ["--bp-mask", str(ph / "volume.vol"),
                             "--thresholds", THRESH]) == 1
    nope = ["quantify", "--mesh", str(tmp_path / "nope.vtk"),
            "--out", str(tmp_path / "r.json"), "--thresholds", THRESH]
    capsys.readouterr()
    for source in ([], ["--bp-mean", "100"], [*bp, "--bp-mask", "m.vol"],
                   ["--bp-mask", "m.vol"]):
        assert main(nope + source) == 1
        assert "--bp-" in capsys.readouterr().err
    # blood-pool SD must be finite and positive
    for sd in ("nan", "0", "-1"):
        assert main(base + ["--bp-mean", "100", "--bp-sd", sd,
                            "--thresholds", THRESH]) == 1
    # reference threshold must be swept; refused before the mesh is read
    assert main(base + bp + ["--thresholds", THRESH,
                             "--ref-threshold", "5"]) == 1
    capsys.readouterr()
    assert main(["quantify", "--mesh", str(tmp_path / "nope.vtk"),
                 "--out", str(tmp_path / "r.json"), *bp,
                 "--thresholds", THRESH, "--ref-threshold", "5"]) == 1
    assert "--ref-threshold" in capsys.readouterr().err
    # the mesh already carries intensity; projecting over it is refused
    assert main(base + bp + ["--volume", str(ph / "volume.vol"),
                             "--thresholds", THRESH]) == 1
    # no joint areas exist in the phantom config
    assert main(base + bp + ["--thresholds", THRESH,
                             "--strategy", "joint"]) == 1
    assert not (tmp_path / "r.json").exists()
    assert len(recwarn) == 0


def test_impossible_slit_layout_exits_1_without_a_traceback(tmp_path,
                                                           capsys):
    # keep 0 removes the whole band, so no patchiness slit can be placed
    out = tmp_path / "D"
    assert main(["synth", "--keep", "0", "--patchiness", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pvgap: could not place a patchiness slit")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, field", [
    (["--edge", "inf"], "target_edge_mm"),
    (["--edge", "nan"], "target_edge_mm"),
    (["--taper", "nan,9"], "taper"),
    (["--taper", "0,9"], "taper"),
    (["--edge", "5"], "kept scar band"),
])
def test_synth_refuses_a_meaningless_spec(args, field, tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["synth", "--keep", "0.5", "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("pvgap: ") and field in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_io_errors_exit_2(workdir, tmp_path, capsys):
    ph = workdir / "ph"
    bp = ["--bp-mean", "100", "--bp-sd", "10"]
    missing = str(tmp_path / "nope.vtk")
    assert main(["quantify", "--mesh", missing, "--out",
                 str(tmp_path / "r.json")] + bp) == 2
    garbage = tmp_path / "garbage.vtk"
    garbage.write_text("not a mesh\n")
    assert main(["quantify", "--mesh", str(garbage), "--out",
                 str(tmp_path / "r.json")] + bp) == 2
    assert main(["cohort", "--reports", str(tmp_path / "void.json"),
                 "--out", str(tmp_path / "c")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field, values", [("spacing", "nan 0.5 1"),
                                           ("origin", "inf 0 0")])
def test_non_finite_volume_geometry_exits_2_without_a_report(
        field, values, workdir, tmp_path, capsys):
    # a nan spacing once projected every vertex to -inf: rgm_nauc 1.0
    ph = workdir / "ph"
    mesh = load_mesh(ph / "mesh.vtk")
    bare = tmp_path / "bare.vtk"
    save_mesh(SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                          region=mesh.region, name=mesh.name), bare)
    head, sep, payload = (ph / "volume.vol").read_bytes().partition(
        b"\ndata\n")
    lines = [f"{field} {values}".encode() if ln.startswith(field.encode())
             else ln for ln in head.split(b"\n")]
    volume = tmp_path / "bad.vol"
    volume.write_bytes(b"\n".join(lines) + sep + payload)
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(bare), "--volume", str(volume),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bp", [("100", "nan"), ("100", "0"),
                                ("inf", "10")])
def test_blood_pool_values_are_refused_before_the_mesh_is_read(
        bp, tmp_path, capsys):
    mean, sd = bp
    assert main(["quantify", "--mesh", str(tmp_path / "missing.vtk"),
                 "--out", str(tmp_path / "r.json"), "--bp-mean", mean,
                 "--bp-sd", sd]) == 1
    assert "blood pool" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--out", "--annotated-mesh"])
def test_output_onto_a_directory_exits_2_and_leaves_no_temp_file(
        flag, workdir, tmp_path, capsys):
    ph = workdir / "ph"
    target = tmp_path / "taken"
    target.mkdir()
    outputs = {"--out": str(tmp_path / "r.json"),
               "--annotated-mesh": str(tmp_path / "marked.vtk"), flag:
               str(target)}
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10", "--thresholds", THRESH,
                 *(a for item in outputs.items() for a in item)]) == 2
    capsys.readouterr()
    assert target.is_dir() and not any(target.iterdir())
    assert not list(tmp_path.glob("*.tmp"))


def test_all_areas_failed_exit_3(workdir, tmp_path, capsys):
    ph = workdir / "ph"
    cfg = {"areas": {"GHOST": {"labels": [25, 26],
                               "strategy": "independent",
                               "cut": {"labels": [25, 26]},
                               "vein_seeds": [0]}}}
    cfg_path = tmp_path / "ghost.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    code = main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(cfg_path),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "GHOST" in err and "all areas failed" in err
    # the report is still written, carrying the failure
    report = _report(out)
    assert report["areas"]["GHOST"]["status"] == "failed"


# --- cohort aggregation over real reports ---

@pytest.fixture(scope="module")
def cohort_dir(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    reports = root / "reports"
    reports.mkdir()
    (reports / "a.json").write_bytes((workdir / "report.json").read_bytes())
    ph = root / "ph2"
    assert main(["synth", "--keep", "0.75", "--seed", "1",
                 "--out", str(ph)]) == 0
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH,
                 "--out", str(reports / "b.json")]) == 0
    out = root / "tables"
    assert main(["cohort", "--reports", str(reports),
                 "--out", str(out)]) == 0
    return reports, out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cohort_tables_match_reports(cohort_dir):
    reports, out = cohort_dir
    naucs = {}
    for p in sorted(reports.glob("*.json")):
        rep = _report(p)
        naucs[rep["mesh_name"]] = rep["areas"]["LSPV"]["rgm_nauc"]
    rows = _read_csv(out / "cohort.csv")
    assert rows[0][:2] == ["case_id", "LSPV_rgm_nauc"]
    assert len(rows) == 3
    got = {r[0]: float(r[1]) for r in rows[1:]}
    assert got == pytest.approx(naucs)
    stats = _read_csv(out / "area_stats.csv")
    by_area = {r[0]: r for r in stats[1:]}
    vals = list(naucs.values())
    assert float(by_area["LSPV"][3]) == pytest.approx(
        statistics.mean(vals), rel=1e-5)
    assert float(by_area["LSPV"][4]) == pytest.approx(
        statistics.stdev(vals), rel=1e-5)
    hist = _read_csv(out / "hist_LSPV.csv")
    assert sum(int(r[2]) for r in hist[1:]) == 2
    # a single search area leaves nothing to test against
    assert _read_csv(out / "tests.csv") == [["area", "metric", "t",
                                             "df", "p"]]
    assert (out / "regions_independent.csv").exists()
    assert not (out / "regions_joint.csv").exists()


def _two_area_cases(report, naucs):
    """Copies of a real report whose LSPV entry is cloned as areas A and B,
    one case per (A, B) pair of rgm_nauc values; None marks a failed area."""
    lspv = report["areas"]["LSPV"]
    cases = []
    for i, pair in enumerate(naucs):
        areas = {}
        for name, nauc in zip("AB", pair):
            if nauc is None:
                areas[name] = {"strategy": lspv["strategy"],
                               "labels": lspv["labels"], "status": "failed",
                               "error": "no scar"}
            else:
                areas[name] = dict(lspv, rgm_nauc=nauc)
        cases.append(dict(report, mesh_name=f"case{i}", areas=areas))
    return cases


@pytest.mark.parametrize("naucs", [
    [(0.2, 0.4)],                   # one case: each sample has one value
    [(0.2, None), (0.3, None)],     # B failed everywhere: A has no peer
    [(0.2, 0.4), (0.2, 0.4)],       # constant samples, unequal means
], ids=["one-case", "peer-failed", "zero-variance"])
def test_cohort_writes_every_table_when_welch_is_undefined(
        workdir, tmp_path, naucs):
    reports = tmp_path / "reports"
    reports.mkdir()
    for case in _two_area_cases(_report(workdir / "report.json"), naucs):
        (reports / f"{case['mesh_name']}.json").write_text(json.dumps(case))
    out = tmp_path / "tables"
    assert main(["cohort", "--reports", str(reports),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "area_stats.csv", "cohort.csv", "hist_A.csv", "hist_B.csv",
        "regions_independent.csv", "tests.csv"]
    assert _read_csv(out / "tests.csv") == [
        ["area", "metric", "t", "df", "p"],
        ["A", "rgm_nauc", "", "", ""], ["B", "rgm_nauc", "", "", ""]]


def test_cohort_rejects_malformed_reports(cohort_dir, tmp_path, capsys):
    reports, _out = cohort_dir
    good = json.loads((reports / "a.json").read_text())
    unreferenced = {k: v for k, v in good.items()
                    if k != "reference_threshold"}
    not_finite = ('{"format": "gap-report 1", "mesh_name": "x", '
                  '"reference_threshold": NaN, "areas": {}}')
    for name, text, why in (("missing", json.dumps(unreferenced),
                             "lacks the key 'reference_threshold'"),
                            ("nan", not_finite, "NaN is not strict JSON")):
        src = tmp_path / f"{name}.json"
        src.write_text(text)
        out = tmp_path / f"t_{name}"
        assert main(["cohort", "--reports", str(src),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert why in capsys.readouterr().err


def test_cohort_rejects_duplicate_cases(cohort_dir, tmp_path, capsys):
    reports, _out = cohort_dir
    dup = tmp_path / "dup"
    dup.mkdir()
    for name in ("a.json", "a_copy.json"):
        (dup / name).write_bytes((reports / "a.json").read_bytes())
    assert main(["cohort", "--reports", str(dup),
                 "--out", str(tmp_path / "t")]) == 1
    assert "duplicate" in capsys.readouterr().err
