"""Monopartite projections, similarity, and the maximum-similarity tree.

P = M·Mᵀ counts the sectors two regions share; S = Mᵀ·M counts the
regions two sectors share.  Similarity is the Dice-style ratio
Θ[x][y] = 2·P[x][y] / (P[x][x] + P[y][y]) in [0, 1].  The tree the
figures call an MST is grown greedily by *maximum* similarity
(equivalently, a minimum spanning tree of 1 - Θ): start from the
lexicographically smallest label and repeatedly attach the non-tree
node with the highest-similarity link to the tree, rounding weights to
12 decimals for comparison and breaking ties by (tree-side label,
new label).  This is the dense form of Prim's algorithm (Prim 1957):
each outside node keeps its best link to the tree so far, as a rounded
weight and the tree-side label's rank, so the whole tree takes O(n²)
array work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .catalogs import RegionCatalog, SectorCatalog
from .errors import DisconnectedGraphError, InputDataError
from .matrixio import fmt_float
from .rca import BinaryBipartiteMatrix, validate_nondegenerate

ROUND_DECIMALS = 12


@dataclass(frozen=True)
class ProjectionMatrix:
    values: np.ndarray          # square symmetric ints
    kind: str                   # "region" | "sector"
    codes: tuple


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray          # square symmetric floats in [0, 1]
    kind: str
    codes: tuple


@dataclass(frozen=True)
class SpanningTree:
    edges: Tuple[Tuple[str, str, float], ...]   # (node_a, node_b, weight)
    n: int
    total_weight: float
    kind: str = ""


def project(m: BinaryBipartiteMatrix, kind: str) -> ProjectionMatrix:
    """Integer co-occurrence counts; the diagonal is the degree vector."""
    validate_nondegenerate(m)
    # numpy multiplies int64 matrices without BLAS; a float64 product is
    # exact here, because every count is at most max(p, s), far below 2**53
    v = m.values.astype(np.float64)
    if kind == "region":
        counts, codes = v @ v.T, m.regions.codes
    elif kind == "sector":
        counts, codes = v.T @ v, m.sectors.codes
    else:
        raise InputDataError(f"unknown projection kind {kind!r}")
    return ProjectionMatrix(counts.astype(np.int64), kind, codes)


def similarity(proj: ProjectionMatrix) -> SimilarityMatrix:
    d = np.diag(proj.values)
    if np.any(d == 0):
        label = proj.codes[int(np.argmax(d == 0))]
        raise InputDataError(f"zero co-occurrence diagonal for {label!r}")
    theta = 2.0 * proj.values / (d[:, None] + d[None, :])
    return SimilarityMatrix(theta, proj.kind, proj.codes)


def _components(adj: np.ndarray) -> List[List[int]]:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.flatnonzero(adj[i] & ~seen):
                seen[j] = True
                stack.append(int(j))
        comps.append(sorted(comp))
    return comps


def max_similarity_tree(theta: SimilarityMatrix) -> SpanningTree:
    """Prim-style growth by maximum similarity with deterministic ties.

    Each step attaches the (tree node a, outside node b) pair with the
    smallest key (-rounded[a, b], code a, code b).  For every outside
    node the best (rounded weight, tree-side code rank) so far is kept,
    so a step is one scan of those arrays plus one row update: O(n^2)
    in all.  Codes are distinct, so ranks order them as the codes do.
    """
    w = theta.values
    codes = theta.codes
    n = w.shape[0]
    if n < 2:
        raise InputDataError("need at least 2 nodes for a spanning tree")
    comps = _components(w > 0)
    if len(comps) > 1:
        parts = "; ".join(
            "{" + ",".join(codes[i] for i in comp) + "}" for comp in comps
        )
        raise DisconnectedGraphError(
            f"similarity graph is disconnected: components {parts}"
        )
    rounded = np.round(w, ROUND_DECIMALS)
    by_rank = sorted(range(n), key=codes.__getitem__)
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    start = by_rank[0]
    outside = np.ones(n, dtype=bool)
    outside[start] = False
    best_w = rounded[start].copy()        # best rounded weight to the tree
    best_w[start] = -np.inf
    best_a = np.zeros(n, dtype=np.intp)   # rank of that tree-side node
    edges = []
    for _ in range(n - 1):
        top = best_w.max()
        tied = np.flatnonzero(best_w == top)
        b = tied[np.argmin(best_a[tied] * n + rank[tied])]
        a = by_rank[best_a[b]]
        edges.append((codes[a], codes[b], float(w[a, b])))
        outside[b] = False
        best_w[b] = -np.inf
        row = rounded[b]
        gain = outside & ((row > best_w)
                          | ((row == best_w) & (rank[b] < best_a)))
        best_w[gain] = row[gain]
        best_a[gain] = rank[b]
    total = float(sum(e[2] for e in edges))
    return SpanningTree(tuple(edges), n, total, theta.kind)


def _group_lookup(catalog, grouping: str):
    entries = list(catalog)
    if not entries or not hasattr(entries[0], grouping):
        raise InputDataError(
            f"catalog has no {grouping!r} attribute for grouping"
        )
    names = {}
    groups = {}
    for e in entries:
        names[e.code] = e.name
        groups[e.code] = getattr(e, grouping)
    return names, groups


def export_tree(tree: SpanningTree, catalog, grouping: str,
                format: str = "dot") -> bytes:
    """Serialize the tree with per-node ``label``/``group`` attributes.

    ``catalog`` is the RegionCatalog or SectorCatalog the tree was built
    over; ``grouping`` names the catalog attribute used as the node
    group (``super_region`` or ``division``).
    """
    names, groups = _group_lookup(catalog, grouping)
    nodes = sorted({c for e in tree.edges for c in (e[0], e[1])})
    for c in nodes:
        if c not in names:
            raise InputDataError(f"missing group mapping for {c!r}")
    if format == "dot":
        lines = ["graph tree {"]
        for c in nodes:
            lines.append(
                f'  "{c}" [label="{names[c]}", group="{groups[c]}"];'
            )
        for a, b, wt in tree.edges:
            lines.append(f'  "{a}" -- "{b}" [weight={fmt_float(wt)}];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "graphml":
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
            '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
            '  <key id="group" for="node" attr.name="group" attr.type="string"/>',
            '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
            '  <graph edgedefault="undirected">',
        ]
        for c in nodes:
            out.append(f"    <node id={quoteattr(c)}>")
            out.append(f'      <data key="label">{escape(names[c])}</data>')
            out.append(f'      <data key="group">{escape(groups[c])}</data>')
            out.append("    </node>")
        for a, b, wt in tree.edges:
            out.append(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>")
            out.append(f'      <data key="weight">{fmt_float(wt)}</data>')
            out.append("    </edge>")
        out.extend(["  </graph>", "</graphml>"])
        return ("\n".join(out) + "\n").encode("utf-8")
    if format == "csv":
        lines = ["node_a,node_b,similarity"]
        lines.extend(f"{a},{b},{fmt_float(wt)}" for a, b, wt in tree.edges)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise InputDataError(f"unknown format {format!r}")
