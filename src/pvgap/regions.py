"""Anatomical region configuration and search-area preparation.

A region config names the search areas (one per vein, or one per ipsilateral
vein pair), the atlas labels each area covers, where to cut the area open,
and a seed vertex near each vein ostium. Areas are extracted as submeshes,
their vein boundary loops are identified from the seeds, and the area is
opened into a topological disk by cutting along the configured line(s).

Per-area failures raise AreaError so a caller can continue with the
remaining areas; malformed configs raise ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AreaError, ConfigError
from .mesh import (CutMesh, SurfaceMesh, connected_components, cut_mesh,
                   edge_path, is_token)

MAX_LABEL = 27
STRATEGIES = ("independent", "joint")

# canonical vein names: each joint area covers one ipsilateral pair
JOINT_OF_VEIN = {
    "RSPV": "RightPVs",
    "RIPV": "RightPVs",
    "LSPV": "LeftPVs",
    "LIPV": "LeftPVs",
}


def veins_of_joint(joint_name: str) -> tuple[str, ...]:
    return tuple(v for v, j in JOINT_OF_VEIN.items() if j == joint_name)


@dataclass(frozen=True)
class AreaSpec:
    """One configured search area."""
    name: str
    labels: frozenset
    strategy: str
    cut_labels: tuple | None
    cut_vertices: tuple | None  # tuple of vertex-id tuples, in parent-mesh ids
    vein_seeds: tuple

    @property
    def n_veins(self) -> int:
        return 2 if self.strategy == "joint" else 1


@dataclass(frozen=True)
class RegionConfig:
    areas: tuple

    def names(self) -> tuple:
        return tuple(a.name for a in self.areas)

    def area(self, name: str) -> AreaSpec:
        for a in self.areas:
            if a.name == name:
                return a
        raise ConfigError(f"no area named {name!r} in config")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _area_from_dict(name: str, raw: dict) -> AreaSpec:
    # the name becomes the annotated mesh's array name path_<name>
    _require(is_token(name), f"area {name!r}: name must be nonempty "
             "printable ASCII without whitespace")
    _require(isinstance(raw, dict), f"area {name!r}: entry must be an object")
    known = {"labels", "strategy", "cut", "vein_seeds"}
    extra = {k for k in raw if not k.startswith("_")} - known
    _require(not extra, f"area {name!r}: unknown keys {sorted(extra)}")
    for key in known:
        _require(key in raw, f"area {name!r}: missing key {key!r}")

    labels = raw["labels"]
    _require(isinstance(labels, list) and labels,
             f"area {name!r}: labels must be a nonempty list")
    _require(all(isinstance(v, int) and 0 <= v <= MAX_LABEL for v in labels),
             f"area {name!r}: labels must be integers in 0..{MAX_LABEL}")
    _require(len(set(labels)) == len(labels),
             f"area {name!r}: duplicate labels")

    strategy = raw["strategy"]
    _require(strategy in STRATEGIES,
             f"area {name!r}: strategy must be one of {STRATEGIES}")
    n_veins = 2 if strategy == "joint" else 1

    cut = raw["cut"]
    _require(isinstance(cut, dict) and len(cut) == 1
             and next(iter(cut)) in ("labels", "vertices"),
             f"area {name!r}: cut must be {{'labels': [a, b]}} or"
             " {'vertices': [[...], ...]}")
    cut_labels = cut_vertices = None
    if "labels" in cut:
        pair = cut["labels"]
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(isinstance(v, int) for v in pair),
                 f"area {name!r}: cut labels must be a pair of integers")
        _require(pair[0] != pair[1],
                 f"area {name!r}: cut labels must differ")
        _require(set(pair) <= set(labels),
                 f"area {name!r}: cut labels must belong to the area")
        cut_labels = tuple(pair)
    else:
        paths = cut["vertices"]
        _require(isinstance(paths, list) and 1 <= len(paths) <= n_veins,
                 f"area {name!r}: cut vertices must list 1"
                 f"{' or 2' if n_veins == 2 else ''} path(s)")
        for p in paths:
            _require(isinstance(p, list) and len(p) >= 3
                     and all(isinstance(v, int) and v >= 0 for v in p),
                     f"area {name!r}: each cut path needs >= 3 vertex ids")
        cut_vertices = tuple(tuple(p) for p in paths)

    seeds = raw["vein_seeds"]
    _require(isinstance(seeds, list) and len(seeds) == n_veins
             and all(isinstance(v, int) and v >= 0 for v in seeds),
             f"area {name!r}: vein_seeds must list {n_veins} vertex id(s)")
    _require(len(set(seeds)) == len(seeds),
             f"area {name!r}: duplicate vein seeds")

    return AreaSpec(name=name, labels=frozenset(labels), strategy=strategy,
                    cut_labels=cut_labels, cut_vertices=cut_vertices,
                    vein_seeds=tuple(seeds))


def config_from_dict(data: dict) -> RegionConfig:
    _require(isinstance(data, dict), "config root must be an object")
    extra = {k for k in data if not k.startswith("_")} - {"areas"}
    _require(not extra, f"unknown config keys {sorted(extra)}")
    _require(isinstance(data.get("areas"), dict) and data["areas"],
             "config must carry a nonempty 'areas' object")
    areas = tuple(_area_from_dict(name, raw)
                  for name, raw in data["areas"].items()
                  if not name.startswith("_"))
    _require(len(areas) > 0, "config must define at least one area")
    return RegionConfig(areas=areas)


def config_to_dict(config: RegionConfig) -> dict:
    out = {}
    for a in config.areas:
        if a.cut_labels is not None:
            cut = {"labels": list(a.cut_labels)}
        else:
            cut = {"vertices": [list(p) for p in a.cut_vertices]}
        out[a.name] = {
            "labels": sorted(a.labels),
            "strategy": a.strategy,
            "cut": cut,
            "vein_seeds": list(a.vein_seeds),
        }
    return {"areas": out}


def load_config(path) -> RegionConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read region config {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: RegionConfig, path) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(config_to_dict(config), indent=2) + "\n",
                   encoding="utf-8")
    tmp.replace(path)


def default_config() -> RegionConfig:
    """Packaged default: canonical four-vein atlas grouping. Vein seeds are
    placeholders and must be replaced with ostium-adjacent vertex ids of the
    actual mesh."""
    here = Path(__file__).parent / "data" / "default_regions.json"
    return load_config(here)


@dataclass(frozen=True)
class SearchArea:
    """An area extracted as a standalone submesh, ready to be opened.

    parent_vertex maps submesh vertex ids back to the source mesh.
    vein_loops holds one boundary loop (submesh ids) per configured seed,
    in seed order. cut_paths holds the primary cut first, then the
    inter-vein cut for joint areas, as submesh vertex ids.
    """
    name: str
    spec: AreaSpec
    mesh: SurfaceMesh
    parent_vertex: np.ndarray
    vein_loops: tuple
    cut_paths: tuple


def _fail(name: str, msg: str):
    raise AreaError(f"area {name}: {msg}")


def _extract_submesh(mesh: SurfaceMesh, spec: AreaSpec):
    if mesh.region is None:
        _fail(spec.name, "mesh carries no region labels")
    sel = np.isin(mesh.region, sorted(spec.labels))
    if not sel.any():
        _fail(spec.name, "no vertices carry its labels")
    tri_keep = sel[mesh.triangles].all(axis=1)
    if not tri_keep.any():
        _fail(spec.name, "labels select no whole triangle")
    tris = mesh.triangles[tri_keep]
    used = np.unique(tris)  # drop label-selected vertices with no triangle
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    sub = SurfaceMesh(
        vertices=mesh.vertices[used],
        triangles=remap[tris],
        intensity=None if mesh.intensity is None else mesh.intensity[used],
        region=mesh.region[used],
        name=f"{mesh.name}:{spec.name}",
        point_data={k: (arr[used], kind)
                    for k, (arr, kind) in mesh.point_data.items()},
    )
    comp = connected_components(sub, np.ones(sub.n_vertices, dtype=bool))
    if comp.count != 1:
        _fail(spec.name, f"labels select {comp.count} disconnected pieces")
    return sub, used


def _classify_vein_loops(sub: SurfaceMesh, loops, seeds_sub, name: str):
    """Assign to each seed the boundary loop nearest to it (Euclidean)."""
    picked = []
    for s in seeds_sub:
        p = sub.vertices[s]
        best = None
        for li, loop in enumerate(loops):
            d = float(np.linalg.norm(sub.vertices[loop] - p, axis=1).min())
            if best is None or d < best[0]:
                best = (d, li)
        picked.append(best[1])
    if len(set(picked)) != len(picked):
        _fail(name, "vein seeds resolve to the same boundary loop")
    return picked


def _cut_from_labels(sub: SurfaceMesh, spec: AreaSpec, vein_mask: np.ndarray):
    """Cut line from an ordered label pair: the chain of first-label vertices
    that touch the second label across an edge. The chain must form a single
    simple path; it is oriented to start away from the vein boundary."""
    first, second = spec.cut_labels
    adj = sub.adjacency
    cand = []
    for v in np.nonzero(sub.region == first)[0]:
        nb = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        if (sub.region[nb] == second).any():
            cand.append(int(v))
    if len(cand) < 3:
        _fail(spec.name, "cut label interface has fewer than 3 vertices")
    cset = set(cand)
    deg = {v: [int(u) for u in adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
               if int(u) in cset] for v in cand}
    ends = sorted(v for v, nb in deg.items() if len(nb) == 1)
    if len(ends) != 2 or any(len(nb) > 2 for nb in deg.values()):
        _fail(spec.name, "cut label interface is not a simple chain")
    path = [ends[0]]
    prev = -1
    while path[-1] != ends[1]:
        nxt = [u for u in deg[path[-1]] if u != prev]
        if len(nxt) != 1:
            _fail(spec.name, "cut label interface is not a simple chain")
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(cand):
        _fail(spec.name, "cut label interface is not a single chain")
    on_vein = vein_mask[path[0]], vein_mask[path[-1]]
    if on_vein[0] == on_vein[1]:
        _fail(spec.name, "cut must join the vein rim to the outer boundary")
    if on_vein[0]:
        path.reverse()
    return tuple(path)


def build_search_area(mesh: SurfaceMesh, spec: AreaSpec) -> SearchArea:
    """Extract the labelled submesh, identify vein loops, derive cut lines."""
    sub, used = _extract_submesh(mesh, spec)
    parent_index = {int(p): i for i, p in enumerate(used)}

    seeds_sub = []
    for s in spec.vein_seeds:
        if s not in parent_index:
            _fail(spec.name, f"vein seed {s} lies outside the area")
        seeds_sub.append(parent_index[s])

    loops = sub.boundary_loops()
    if len(loops) < spec.n_veins + 1:
        _fail(spec.name, f"expected at least {spec.n_veins + 1} boundary"
                         f" loops, found {len(loops)}")
    picked = _classify_vein_loops(sub, loops, seeds_sub, spec.name)
    vein_loops = tuple(loops[i] for i in picked)
    vein_mask = np.zeros(sub.n_vertices, dtype=bool)
    for loop in vein_loops:
        vein_mask[loop] = True

    if spec.cut_vertices is not None:
        paths = []
        for p in spec.cut_vertices:
            try:
                paths.append(tuple(parent_index[v] for v in p))
            except KeyError as exc:
                _fail(spec.name, f"cut vertex {exc.args[0]} outside the area")
        primary = paths[0]
        explicit_iv = paths[1] if len(paths) == 2 else None
    else:
        primary = _cut_from_labels(sub, spec, vein_mask)
        explicit_iv = None

    cut_paths = [primary]
    if spec.strategy == "joint":
        if explicit_iv is not None:
            cut_paths.append(explicit_iv)
        else:
            iv = edge_path(sub, vein_loops[0], vein_loops[1])
            cut_paths.append(tuple(int(v) for v in iv))
        overlap = set(cut_paths[0]) & set(cut_paths[1])
        if overlap:
            _fail(spec.name, "primary and inter-vein cuts share vertices")

    return SearchArea(name=spec.name, spec=spec, mesh=sub,
                      parent_vertex=used, vein_loops=vein_loops,
                      cut_paths=tuple(cut_paths))


@dataclass(frozen=True)
class OpenedArea:
    """Search area opened into a topological disk.

    side_a/side_b are the two rims of the primary cut in the opened mesh,
    aligned twin-for-twin and ordered along the cut line; a closed loop
    around the vein(s) corresponds to a path from one rim to the other.
    parent_vertex maps opened-mesh vertices to search-area submesh vertices.
    """
    area: SearchArea
    mesh: SurfaceMesh
    parent_vertex: np.ndarray
    side_a: np.ndarray
    side_b: np.ndarray


def open_area(area: SearchArea) -> OpenedArea:
    try:
        first = cut_mesh(area.mesh, np.asarray(area.cut_paths[0]))
    except Exception as exc:
        _fail(area.name, f"primary cut failed: {exc}")
    if len(area.cut_paths) == 1:
        return OpenedArea(area=area, mesh=first.mesh,
                          parent_vertex=first.parent_vertex,
                          side_a=first.side_a, side_b=first.side_b)
    # joint: the inter-vein cut was derived on the uncut submesh; vertex ids
    # survive the first cut because the two cuts are vertex-disjoint
    try:
        second = cut_mesh(first.mesh, np.asarray(area.cut_paths[1]))
    except Exception as exc:
        _fail(area.name, f"inter-vein cut failed: {exc}")
    parent = first.parent_vertex[second.parent_vertex]
    return OpenedArea(area=area, mesh=second.mesh, parent_vertex=parent,
                      side_a=first.side_a, side_b=first.side_b)
