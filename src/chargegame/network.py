"""Road network representation, shortest paths, and file formats.

Networks are directed graphs with geographic node coordinates and edge
lengths in meters. Shortest-path distances are returned in kilometers and
computed with a compiled Dijkstra over the sparse adjacency matrix; the
all-pairs table for a scenario-sized network is cheap and cached.

File format (one record per line, whitespace separated):

    node <id> <x> <y>
    edge <from_id> <to_id> <length_m>

Demand files are CSV with header ``time_s,origin,dest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


@dataclass
class RoadNetwork:
    node_ids: np.ndarray          # external ids, one per node
    coords: np.ndarray            # (n, 2) positions in meters
    edges: np.ndarray             # (m, 3): from-index, to-index, length_m
    _dist_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.node_ids = np.asarray(self.node_ids, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        self.edges = np.asarray(self.edges, dtype=float)

    @property
    def n_nodes(self) -> int:
        return self.node_ids.size

    def _graph(self) -> csr_matrix:
        n = self.n_nodes
        return csr_matrix(
            (self.edges[:, 2], (self.edges[:, 0].astype(int), self.edges[:, 1].astype(int))),
            shape=(n, n),
        )

    def distances_km(self, sources: np.ndarray | None = None) -> np.ndarray:
        """Shortest-path distances in km from the given node indices (or all)."""
        if sources is None:
            if self._dist_cache is None:
                self._dist_cache = dijkstra(self._graph(), directed=True) / 1000.0
            return self._dist_cache
        if self._dist_cache is not None:
            return self._dist_cache[np.asarray(sources, dtype=int)]
        return dijkstra(self._graph(), directed=True,
                        indices=np.asarray(sources, dtype=int)) / 1000.0


def write_network(path: str | Path, net: RoadNetwork) -> None:
    lines = []
    for k in range(net.n_nodes):
        lines.append(f"node {net.node_ids[k]} {float(net.coords[k, 0])!r} {float(net.coords[k, 1])!r}")
    for e in net.edges:
        lines.append(f"edge {net.node_ids[int(e[0])]} {net.node_ids[int(e[1])]} {float(e[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_network(path: str | Path) -> RoadNetwork:
    node_ids, coords, raw_edges = [], [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "node":
            node_ids.append(int(parts[1]))
            coords.append((float(parts[2]), float(parts[3])))
        elif parts[0] == "edge":
            raw_edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
        else:
            raise ValueError(f"unknown record type: {parts[0]!r}")
    index = {nid: k for k, nid in enumerate(node_ids)}
    edges = np.array([(index[a], index[b], w) for a, b, w in raw_edges])
    return RoadNetwork(np.array(node_ids), np.array(coords), edges)


def write_demand(path: str | Path, demand: np.ndarray) -> None:
    """Demand rows (time_s, origin_id, dest_id) to CSV."""
    lines = ["time_s,origin,dest"]
    for t, o, d in demand:
        lines.append(f"{float(t)!r},{int(o)},{int(d)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_demand(path: str | Path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines()[1:]:
        if not line.strip():
            continue
        t, o, d = line.replace(",", " ").split()
        rows.append((float(t), int(o), int(d)))
    if not rows:
        raise ValueError("demand file is empty")
    return np.array(rows)


def grid_network(nx: int, ny: int, spacing_m: float = 700.0,
                 jitter_m: float = 120.0, seed: int = 0) -> RoadNetwork:
    """Jittered rectangular grid with bidirectional edges; lengths from geometry."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    coords = np.stack([xs.ravel() * spacing_m, ys.ravel() * spacing_m], axis=1)
    coords = coords + rng.uniform(-jitter_m, jitter_m, coords.shape)
    node_ids = np.arange(nx * ny)

    edges = []
    def add(a, b):
        length = float(np.linalg.norm(coords[a] - coords[b]))
        edges.append((a, b, length))
        edges.append((b, a, length))

    for i in range(nx):
        for j in range(ny):
            k = i * ny + j
            if i + 1 < nx:
                add(k, (i + 1) * ny + j)
            if j + 1 < ny:
                add(k, i * ny + j + 1)
    return RoadNetwork(node_ids, coords, np.array(edges))
