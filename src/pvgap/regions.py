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

from .errors import AreaError, ConfigError, is_count
from .mesh import (SurfaceMesh, connected_components, cut_mesh, edge_path,
                   is_token, write_atomic)

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
    _require(all(is_count(v) and v <= MAX_LABEL for v in labels),
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
                 and all(map(is_count, pair)),
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
                     and all(map(is_count, p)),
                     f"area {name!r}: each cut path needs >= 3 vertex ids")
        cut_vertices = tuple(tuple(p) for p in paths)

    seeds = raw["vein_seeds"]
    _require(isinstance(seeds, list) and len(seeds) == n_veins
             and all(map(is_count, seeds)),
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
    text = json.dumps(config_to_dict(config), indent=2) + "\n"
    write_atomic(path, text.encode("utf-8"))


def default_config() -> RegionConfig:
    """Packaged default: canonical four-vein atlas grouping. Vein seeds are
    placeholders and must be replaced with ostium-adjacent vertex ids of the
    actual mesh."""
    here = Path(__file__).parent / "data" / "default_regions.json"
    return load_config(here)


@dataclass(frozen=True)
class SearchArea:
    """An area extracted as a standalone submesh, ready to be opened.

    mesh is derived from the source mesh and named "<source>:<area>";
    parent_vertex maps its vertex ids back to the source. vein_loops holds
    one boundary loop (submesh ids) per configured seed, in seed order.
    cut_paths holds the primary cut first, then the inter-vein cut for
    joint areas, as submesh vertex ids.
    """
    name: str
    mesh: SurfaceMesh
    parent_vertex: np.ndarray
    vein_loops: tuple
    cut_paths: tuple


def _fail(name: str, msg: str):
    raise AreaError(f"area {name}: {msg}")


def _extract_submesh(mesh: SurfaceMesh, spec: AreaSpec):
    """(submesh, used, remap): used[i] is the source vertex of submesh
    vertex i, remap[v] the submesh id of source vertex v (-1 outside)."""
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
    sub = mesh.derive(used, remap[tris], name=f"{mesh.name}:{spec.name}")
    comp = connected_components(sub, np.ones(sub.n_vertices, dtype=bool))
    if comp.count != 1:
        _fail(spec.name, f"labels select {comp.count} disconnected pieces")
    return sub, used, remap


def _classify_vein_loops(sub: SurfaceMesh, loops, seeds_sub, name: str):
    """Assign to each seed the boundary loop nearest to it (Euclidean)."""
    picked = []
    for s in seeds_sub:
        dist = [np.linalg.norm(sub.vertices[loop] - sub.vertices[s], axis=1)
                .min() for loop in loops]
        picked.append(int(np.argmin(dist)))  # the first of equal loops
    if len(set(picked)) != len(picked):
        _fail(name, "vein seeds resolve to the same boundary loop")
    return picked


def _cut_from_labels(sub: SurfaceMesh, spec: AreaSpec, vein_mask: np.ndarray):
    """Cut line from an ordered label pair: the chain of first-label vertices
    that touch the second label across an edge. The chain must form a single
    simple path; it is oriented to start away from the vein boundary."""
    first, second = spec.cut_labels
    e = sub.edges
    lab = sub.region[e]
    on = np.zeros(sub.n_vertices, dtype=bool)
    on[e[(lab[:, 0] == first) & (lab[:, 1] == second), 0]] = True
    on[e[(lab[:, 1] == first) & (lab[:, 0] == second), 1]] = True
    cand = np.flatnonzero(on)
    if len(cand) < 3:
        _fail(spec.name, "cut label interface has fewer than 3 vertices")
    link = e[on[e[:, 0]] & on[e[:, 1]]]  # the interface's own edges
    deg = np.bincount(link.ravel(), minlength=sub.n_vertices)
    ends = np.flatnonzero(deg == 1).tolist()
    if len(ends) != 2 or deg.max() > 2:
        _fail(spec.name, "cut label interface is not a simple chain")
    # walk from one end to the other: with degrees at most 2, the next
    # vertex is the sum of the current one's neighbours minus the previous
    nsum = np.zeros(sub.n_vertices, dtype=np.int64)
    np.add.at(nsum, link[:, 0], link[:, 1])
    np.add.at(nsum, link[:, 1], link[:, 0])
    nsum = nsum.tolist()
    path = [ends[0], nsum[ends[0]]]
    while path[-1] != ends[1]:
        path.append(nsum[path[-1]] - path[-2])
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
    sub, used, remap = _extract_submesh(mesh, spec)

    def local(ids, msg):
        """Submesh ids of source-mesh ids; AreaError(msg) names the first
        id outside the area, on either side of the source's id range."""
        for v in ids:
            if not (0 <= v < len(remap) and remap[int(v)] >= 0):
                _fail(spec.name, msg.format(v))
        return tuple(remap[np.asarray(ids, dtype=np.int64)].tolist())

    seeds_sub = local(spec.vein_seeds, "vein seed {} lies outside the area")

    loops = sub.boundary_loops()
    if len(loops) < spec.n_veins + 1:
        _fail(spec.name, f"expected at least {spec.n_veins + 1} boundary"
                         f" loops, found {len(loops)}")
    picked = _classify_vein_loops(sub, loops, seeds_sub, spec.name)
    vein_loops = tuple(loops[i] for i in picked)
    vein_mask = np.zeros(sub.n_vertices, dtype=bool)
    vein_mask[np.concatenate(vein_loops)] = True

    if spec.cut_vertices is not None:
        paths = [local(p, "cut vertex {} outside the area")
                 for p in spec.cut_vertices]
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

    return SearchArea(name=spec.name, mesh=sub,
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
