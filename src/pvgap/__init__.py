"""Gap quantification for encircling ablation lesions on surface meshes.

The package measures how completely a scar pattern encircles each pulmonary
vein on an LGE-MRI left-atrium surface: scar is segmented at several
blood-pool-relative thresholds, gaps between scar patches are found with a
minimum-path search over a patch graph, and the relative gap measure
(gap length / encircling path length) is swept across thresholds and
summarized per cohort.
"""

__version__ = "0.1.0"

from .cohort import (CohortTable, WelchResult, aggregate, area_stats,
                     histogram, one_vs_rest, regional_map, welch_t_test)
from .errors import (AreaError, AttributeLengthError, ConfigError,
                     GapQuantError, MeshFormatError, TopologyError,
                     VolumeFormatError)
from .gaps import (EPS_GAP, EncirclingPath, GapGraph, GapSegment, build_graph,
                   min_gap_path, solve_gap_graph)
from .geodesics import (DistanceField, InterSetDistance, TracedPath,
                        distance_transform, geodesic_path,
                        min_interset_distance, trace_path)
from .mesh import (CutMesh, PatchLabeling, SurfaceMesh, connected_components,
                   cut_mesh, edge_path, load_mesh, save_mesh)
from .regions import (JOINT_OF_VEIN, AreaSpec, OpenedArea, RegionConfig,
                      SearchArea, build_search_area, default_config,
                      load_config, open_area, save_config)
from .scar import (THRESHOLD_FACTORS, ScalarVolume, blood_pool_stats,
                   load_volume, mip_project, save_volume, threshold_mask,
                   vertex_normals)
from .sweep import (CaseResult, annotated_mesh, case_report, load_report,
                    rgm_nauc, run_case, write_annotated_mesh, write_report)
from .synth import PhantomSpec, PhantomTruth, expected_rgm, icosphere, \
    make_phantom, phantom_volume, plane_grid

__all__ = [
    "__version__",
    "AreaError", "AttributeLengthError", "ConfigError", "GapQuantError",
    "MeshFormatError", "TopologyError", "VolumeFormatError",
    "CutMesh", "PatchLabeling", "SurfaceMesh", "connected_components",
    "cut_mesh", "edge_path", "load_mesh", "save_mesh",
    "DistanceField", "InterSetDistance", "TracedPath", "distance_transform",
    "geodesic_path", "min_interset_distance", "trace_path",
    "THRESHOLD_FACTORS", "ScalarVolume", "blood_pool_stats", "load_volume",
    "mip_project", "save_volume", "threshold_mask", "vertex_normals",
    "JOINT_OF_VEIN", "AreaSpec", "OpenedArea", "RegionConfig", "SearchArea",
    "build_search_area", "default_config", "load_config", "open_area",
    "save_config",
    "EPS_GAP", "EncirclingPath", "GapGraph", "GapSegment", "build_graph",
    "min_gap_path", "solve_gap_graph",
    "CaseResult", "annotated_mesh", "case_report", "load_report", "rgm_nauc",
    "run_case", "write_annotated_mesh", "write_report",
    "PhantomSpec", "PhantomTruth", "expected_rgm", "icosphere",
    "make_phantom", "phantom_volume", "plane_grid",
    "CohortTable", "WelchResult", "aggregate", "area_stats", "histogram",
    "one_vs_rest", "regional_map", "welch_t_test",
]
