"""Gap quantification for encircling ablation lesions on surface meshes.

The package measures how completely a scar pattern encircles each pulmonary
vein on an LGE-MRI left-atrium surface: scar is segmented at several
blood-pool-relative thresholds, gaps between scar patches are found with a
minimum-path search over a patch graph, and the relative gap measure
(gap length / encircling path length) is swept across thresholds and
summarized per cohort.

The names exported here are the supported API: what the four CLI commands
do, called from Python. The method's internals (patch graph, geodesics,
seam cuts, search areas) import from their modules.
"""

__version__ = "0.1.0"

from .cohort import (CohortTable, WelchResult, aggregate, area_stats,
                     histogram, one_vs_rest, regional_map, welch_t_test)
from .errors import (AreaError, AttributeLengthError, ConfigError,
                     GapQuantError, MeshFormatError, TopologyError,
                     VolumeFormatError)
from .mesh import SurfaceMesh, load_mesh, save_mesh
from .regions import RegionConfig, default_config, load_config, save_config
from .scar import (THRESHOLD_FACTORS, ScalarVolume, blood_pool_stats,
                   load_volume, mip_project, save_volume, threshold_mask)
from .sweep import (CaseResult, annotated_mesh, case_report, load_report,
                    rgm_nauc, run_case, write_annotated_mesh, write_report)
from .synth import (PhantomSpec, PhantomTruth, expected_rgm, make_phantom,
                    phantom_volume)

__all__ = [
    "__version__",
    "AreaError", "AttributeLengthError", "ConfigError", "GapQuantError",
    "MeshFormatError", "TopologyError", "VolumeFormatError",
    "SurfaceMesh", "load_mesh", "save_mesh",
    "THRESHOLD_FACTORS", "ScalarVolume", "blood_pool_stats", "load_volume",
    "mip_project", "save_volume", "threshold_mask",
    "RegionConfig", "default_config", "load_config", "save_config",
    "CaseResult", "annotated_mesh", "case_report", "load_report", "rgm_nauc",
    "run_case", "write_annotated_mesh", "write_report",
    "PhantomSpec", "PhantomTruth", "expected_rgm", "make_phantom",
    "phantom_volume",
    "CohortTable", "WelchResult", "aggregate", "area_stats", "histogram",
    "one_vs_rest", "regional_map", "welch_t_test",
]
