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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AreaError, ConfigError, GapQuantError, in_file, is_count
from .mesh import (CutMesh, SurfaceMesh, connected_components, cut_mesh,
                   edge_path, is_token, read_json, write_json)

MAX_LABEL = 27
STRATEGIES = ("independent", "joint")
AREA_NAME_RULE = "nonempty printable ASCII without whitespace, '/' or '\\'"

# canonical vein names: each joint area covers one ipsilateral pair
JOINT_OF_VEIN = {
    "RSPV": "RightPVs",
    "RIPV": "RightPVs",
    "LSPV": "LeftPVs",
    "LIPV": "LeftPVs",
}


def is_area_name(name: str) -> bool:
    """True if name can name a search area (`AREA_NAME_RULE`): a token
    (`mesh.is_token`), as it names the annotated mesh's array
    path_<name>, that holds no path separator, as it names the cohort
    table hist_<name>.csv."""
    return is_token(name) and "/" not in name and "\\" not in name


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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _area_from_dict(name: str, raw: dict) -> AreaSpec:
    _require(is_area_name(name), f"area {name!r}: name must be "
             f"{AREA_NAME_RULE}")
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
    """The region config in JSON file path. A file `read_json` refuses, or
    a config that breaks `config_from_dict`'s rules, raises ConfigError
    naming the file; an unreadable file raises its OSError."""
    with in_file(path):
        return config_from_dict(read_json(path))


def save_config(config: RegionConfig, path) -> None:
    write_json(path, config_to_dict(config))


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
    # the vertices of the kept triangles, ascending: the label-selected
    # vertices with no triangle are dropped
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[tris] = True
    used = np.flatnonzero(used)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    sub = mesh.derive(used, remap[tris], name=f"{mesh.name}:{spec.name}")
    # its half-edges are walked (boundary loops, cuts), so `opposite`
    # caches their sorted order before the edge table reads it: one sort
    sub.opposite
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
    simple path; it is oriented to start away from the vein boundary where
    one end lies on it (`build_search_area` checks the ends)."""
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
    if vein_mask[path[0]]:
        path.reverse()
    return tuple(path)


def build_search_area(mesh: SurfaceMesh, spec: AreaSpec) -> SearchArea:
    """Extract the labelled submesh, identify vein loops, derive cut lines.

    Every cut, derived or explicit, must join the two boundary loops it is
    meant to join, or AreaError names it: the primary cut a vein loop to a
    loop that is not a vein's, the inter-vein cut the two vein loops. Here
    the ends on vein loops are checked; `cut_mesh` checks that both ends
    lie on a boundary."""
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
    vein = np.full(sub.n_vertices, -1)  # the vein of each vein-loop vertex
    for i, loop in enumerate(vein_loops):
        vein[loop] = i

    if spec.cut_vertices is not None:
        paths = [local(p, "cut vertex {} outside the area")
                 for p in spec.cut_vertices]
        primary = paths[0]
        explicit_iv = paths[1] if len(paths) == 2 else None
    else:
        primary = _cut_from_labels(sub, spec, vein >= 0)
        explicit_iv = None
    if (vein[[primary[0], primary[-1]]] >= 0).sum() != 1:
        _fail(spec.name, "primary cut must join a vein rim to a boundary "
                         "loop that is not a vein's")

    cut_paths = [primary]
    if spec.strategy == "joint":
        if explicit_iv is not None:
            cut_paths.append(explicit_iv)
        else:
            iv = edge_path(sub, vein_loops[0], vein_loops[1])
            cut_paths.append(tuple(int(v) for v in iv))
        if sorted(vein[[cut_paths[1][0], cut_paths[1][-1]]]) != [0, 1]:
            _fail(spec.name, "inter-vein cut must join the two vein rims")
        overlap = set(cut_paths[0]) & set(cut_paths[1])
        if overlap:
            _fail(spec.name, "primary and inter-vein cuts share vertices")

    return SearchArea(name=spec.name, mesh=sub,
                      parent_vertex=used, vein_loops=vein_loops,
                      cut_paths=tuple(cut_paths))


def open_area(area: SearchArea) -> CutMesh:
    """The search area opened into a topological disk, as a `CutMesh` of
    the mesh the area was extracted from: parent_vertex maps opened-mesh
    vertices to that mesh's vertices. side_a/side_b are the two rims of the
    primary cut, aligned twin-for-twin and ordered along the cut line; a
    closed loop around the vein(s) corresponds to a path from one rim to
    the other. AreaError names the cut that cannot open the area, or the
    Euler characteristic V - E + F of an opened mesh that is not a disk:
    the cuts join distinct boundary loops of a connected area
    (`build_search_area`), so the opened mesh is connected, and it is a
    disk exactly when V - E + F == 1."""
    opened, parent, cuts = area.mesh, area.parent_vertex, []
    # joint: the inter-vein cut was derived on the uncut submesh; vertex ids
    # survive the first cut because the two cuts are vertex-disjoint
    for path, what in zip(area.cut_paths, ("primary", "inter-vein")):
        try:
            cuts.append(cut_mesh(opened, np.asarray(path)))
        except GapQuantError as exc:
            _fail(area.name, f"{what} cut failed: {exc}")
        opened, parent = cuts[-1].mesh, parent[cuts[-1].parent_vertex]
    # V - E + F of the opened mesh: a cut adds its path's k vertices and
    # k - 1 edges, and the submesh's edge table is built already, so the
    # check sorts no half-edges while the submesh is alive
    sub = area.mesh
    euler = sub.n_vertices - len(sub.edges) + sub.n_triangles + len(cuts)
    if euler != 1:
        _fail(area.name, f"opened area is not a topological disk: V - E + F"
                         f" = {euler}, not 1 (a hole or handle that no cut"
                         " opens)")
    parent.flags.writeable = False  # read-only, as cut_mesh's maps are
    return CutMesh(mesh=opened, parent_vertex=parent,
                   side_a=cuts[0].side_a, side_b=cuts[0].side_b)
