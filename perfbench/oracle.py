"""Reference answers computed with scipy, independent of ``repro``'s solvers.

Each check returns ``None`` when the answer is right, else a one-line
description of what is wrong.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree


def _adjacency(n, u, v, data=None):
    data = np.ones(len(u)) if data is None else data
    return coo_matrix((data, (u, v)), shape=(n, n)).tocsr()


def canonical(labels) -> np.ndarray:
    """Relabel so each component is named by its smallest vertex."""
    labels = np.asarray(labels)
    _, inverse = np.unique(labels, return_inverse=True)
    first = np.full(inverse.max() + 1, labels.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(labels.size, dtype=np.int64))
    return first[inverse]


class GraphOracle:
    """Components, minimum-spanning-forest weight and BFS reach of one graph."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.n = graph.n
        self.ncomp, labels = connected_components(
            _adjacency(graph.n, graph.u, graph.v), directed=False
        )
        self.labels = canonical(labels)
        self._msf = None

    def msf(self):
        """(total weight, edge count) of a minimum spanning forest.

        scipy drops zero entries and sums duplicate (u, v) pairs, so
        weights are shifted by one and each vertex pair keeps its
        lightest edge; self-loops never join a forest."""
        if self._msf is None:
            g = self.graph
            keep = g.u != g.v
            lo = np.minimum(g.u, g.v)[keep]
            hi = np.maximum(g.u, g.v)[keep]
            w = g.w[keep] + 1
            order = np.lexsort((w, hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            first = np.ones(lo.size, dtype=bool)
            first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            tree = minimum_spanning_tree(_adjacency(g.n, lo[first], hi[first], w[first].astype(float)))
            edges = tree.nnz
            self._msf = (int(round(tree.sum())) - edges, edges)
        return self._msf

    def check_cc(self, labels):
        labels = np.asarray(labels)
        if labels.shape != (self.n,):
            return f"labels shape {labels.shape} != ({self.n},)"
        if not np.array_equal(canonical(labels), self.labels):
            return "components differ from the scipy oracle"
        return None

    def check_msf(self, edge_ids, total_weight):
        g = self.graph
        weight, edges = self.msf()
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if edge_ids.size != edges:
            return f"{edge_ids.size} forest edges, oracle has {edges}"
        if edge_ids.size and (edge_ids.min() < 0 or edge_ids.max() >= len(g.u)):
            return "forest edge id out of range"
        if int(g.w[edge_ids].sum()) != weight or int(total_weight) != weight:
            return f"forest weight {int(total_weight)} != oracle {weight}"
        ncomp, _ = connected_components(
            _adjacency(g.n, g.u[edge_ids], g.v[edge_ids]), directed=False
        )
        if ncomp != self.ncomp:
            return "forest edges contain a cycle or miss a component"
        return None

    def bfs(self, source: int):
        """(vertices reached, levels) of a BFS from ``source``; levels
        counts the source's level, so it is the eccentricity plus one."""
        order, pred = breadth_first_order(
            _adjacency(self.n, self.graph.u, self.graph.v), source, directed=False
        )
        depth = np.zeros(self.n, dtype=np.int64)
        for vertex in order[1:]:
            depth[vertex] = depth[pred[vertex]] + 1
        return int(order.size), int(depth[order].max()) + 1
