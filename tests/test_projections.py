"""Co-occurrence projections, similarity, and the spanning tree."""

import csv
import io
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import CATALOG_CODES, binary, make_region_catalog, run_python
from ecx import (DisconnectedGraphError, InputDataError, RegionCatalog,
                 export_tree, max_similarity_tree, project, similarity)
from ecx.matrixio import fmt_float
from ecx.projections import SimilarityMatrix
from oracles import max_similarity_tree_reference

NESTED = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]


def test_projection_diagonals_are_degrees():
    m = binary(NESTED)
    p = project(m, "region")
    s = project(m, "sector")
    assert np.array_equal(np.diag(p.values), [3, 2, 1])
    assert np.array_equal(np.diag(s.values), [3, 2, 1])
    assert np.array_equal(p.values, p.values.T)
    assert p.values.dtype == np.int64


@pytest.mark.parametrize("shape,fill", [((60, 90), 0.35), ((90, 60), 0.5),
                                        ((40, 70), 1.0)])
def test_projection_equals_int64_product(shape, fill):
    values = (np.random.default_rng(7).random(shape) < fill).astype(np.int64)
    m = binary(values)
    for kind, expected in (("region", values @ values.T),
                           ("sector", values.T @ values)):
        p = project(m, kind)
        assert p.values.dtype == np.int64
        assert np.array_equal(p.values, expected), kind


def test_projection_counts_shared_sectors():
    p = project(binary(NESTED), "region")
    assert p.values[0, 1] == 2    # regions 1 and 2 share two sectors
    assert p.values[0, 2] == 1
    assert p.values[1, 2] == 1


def test_projection_offdiagonal_bounded_by_degrees():
    p = project(binary(NESTED), "region")
    d = np.diag(p.values)
    assert np.all(p.values <= np.minimum(d[:, None], d[None, :]))


def test_similarity_bounds_and_diagonal():
    theta = similarity(project(binary(NESTED), "region"))
    assert np.allclose(np.diag(theta.values), 1.0)
    assert np.all(theta.values >= 0) and np.all(theta.values <= 1)
    # theta = 2*shared / (deg_a + deg_b)
    assert theta.values[0, 1] == pytest.approx(2 * 2 / (3 + 2))


def test_similarity_one_only_for_identical_rows():
    theta = similarity(project(binary([[1, 1, 0], [1, 1, 0], [0, 1, 1]]),
                               "region"))
    assert theta.values[0, 1] == 1.0
    assert theta.values[0, 2] < 1.0


def _theta(values, codes):
    return SimilarityMatrix(np.asarray(values, dtype=float), "region",
                            tuple(codes))


FOUR_NODE = [
    [1.0, 0.9, 0.8, 0.1],
    [0.9, 1.0, 0.5, 0.7],
    [0.8, 0.5, 1.0, 0.2],
    [0.1, 0.7, 0.2, 1.0],
]


def test_tree_four_node_example():
    tree = max_similarity_tree(_theta(FOUR_NODE, "ABCD"))
    assert {(a, b) for a, b, _ in tree.edges} == {("A", "B"), ("A", "C"),
                                                  ("B", "D")}
    assert tree.total_weight == pytest.approx(2.4)
    assert tree.n == 4


def test_tree_tie_breaking_is_lexicographic():
    flat = np.full((4, 4), 0.5)
    np.fill_diagonal(flat, 1.0)
    tree = max_similarity_tree(_theta(flat, "ABCD"))
    # equal weights everywhere: grow a star from the smallest code
    assert [(a, b) for a, b, _ in tree.edges] == [("A", "B"), ("A", "C"),
                                                  ("A", "D")]


def test_tree_deterministic_across_runs():
    t1 = max_similarity_tree(_theta(FOUR_NODE, "ABCD"))
    t2 = max_similarity_tree(_theta(FOUR_NODE, "ABCD"))
    assert t1 == t2


def test_disconnected_graph_reports_components():
    blocks = [
        [1.0, 0.5, 0.0, 0.0],
        [0.5, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.4],
        [0.0, 0.0, 0.4, 1.0],
    ]
    with pytest.raises(DisconnectedGraphError,
                       match=r"\{A,B\}; \{C,D\}"):
        max_similarity_tree(_theta(blocks, "ABCD"))


def test_tree_needs_two_nodes():
    with pytest.raises(InputDataError, match="at least 2"):
        max_similarity_tree(_theta([[1.0]], "A"))


similarity_values = arrays(
    np.float64, st.tuples(st.integers(2, 7), st.integers(2, 7)),
    elements=st.integers(0, 1),
)


@given(similarity_values)
@settings(max_examples=60, deadline=None)
def test_tree_shape_properties(pattern):
    assume(np.all(pattern.sum(axis=1) > 0) and np.all(pattern.sum(axis=0) > 0))
    theta = similarity(project(binary(pattern), "region"))
    try:
        tree = max_similarity_tree(theta)
    except DisconnectedGraphError:
        assume(False)
    n = pattern.shape[0]
    assert len(tree.edges) == n - 1
    # connectivity: union-find over the emitted edges
    parent = {c: c for c in theta.codes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, wt in tree.edges:
        assert 0 < wt <= 1
        parent[find(a)] = find(b)
    assert len({find(c) for c in theta.codes}) == 1


# Tie-heavy similarity matrices for the comparison with the reference
# tree: Θ of small 0/1 matrices (many exact ties, often disconnected),
# all-equal weights, and weights that differ only below the 12-decimal
# rounding, some of them positive yet rounding to 0.
_SUB_ROUNDING = [0.0, 1e-14, -1e-14, 1e-13, 3e-13, -3e-13]


@st.composite
def _tie_heavy_theta(draw):
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["pattern", "flat", "sub-rounding"]))
    if kind == "pattern":
        pattern = draw(arrays(np.int64, (n, draw(st.integers(1, 6))),
                              elements=st.integers(0, 1)))
        pattern[pattern.sum(axis=1) == 0, 0] = 1
        values = similarity(project(binary(pattern[:, pattern.any(axis=0)]),
                                    "region")).values
    elif kind == "flat":
        values = np.full((n, n), draw(st.sampled_from([0.5, 1.0, 1e-13])))
    else:
        base = draw(arrays(np.float64, (n, n),
                           elements=st.sampled_from([0.0, 0.25, 0.5])))
        noise = draw(arrays(np.float64, (n, n),
                            elements=st.sampled_from(_SUB_ROUNDING)))
        values = np.triu(base + noise, 1)
        values = values + values.T
    np.fill_diagonal(values, 1.0)
    # code order differs from index order, and "N10" < "N2"
    codes = draw(st.permutations([f"N{i}" for i in range(n)]))
    return SimilarityMatrix(values, "region", tuple(codes))


def _tree_outcome(build, theta):
    try:
        tree = build(theta)
    except (DisconnectedGraphError, InputDataError) as exc:
        return type(exc), str(exc)
    return ([(a, b, wt.hex()) for a, b, wt in tree.edges], tree.n,
            tree.total_weight.hex(), tree.kind)


@given(_tie_heavy_theta())
@settings(max_examples=150, deadline=None)
def test_tree_matches_reference(theta):
    assert (_tree_outcome(max_similarity_tree, theta)
            == _tree_outcome(max_similarity_tree_reference, theta))


def test_tree_matches_reference_200_nodes():
    rng = np.random.default_rng(5)
    pattern = (rng.random((200, 60)) < 0.3).astype(np.int64)
    pattern[pattern.sum(axis=1) == 0, 0] = 1
    values = similarity(project(binary(pattern), "region")).values
    codes = tuple(f"R{i}" for i in rng.permutation(200))
    theta = SimilarityMatrix(values, "region", codes)
    outcome = _tree_outcome(max_similarity_tree, theta)
    assert len(outcome[0]) == 199
    assert outcome == _tree_outcome(max_similarity_tree_reference, theta)


def test_export_dot_layout():
    tree = max_similarity_tree(_theta(FOUR_NODE, ["R01", "R02", "R03", "R04"]))
    data = export_tree(tree, make_region_catalog(4), "super_region", "dot")
    text = data.decode("utf-8")
    assert text.startswith("graph tree {")
    assert '"R01" [label="Region 01", group="Kanto"];' in text
    assert '"R01" -- "R02" [weight=0.9];' in text
    assert export_tree(tree, make_region_catalog(4), "super_region",
                       "dot") == data   # byte-stable


def test_export_graphml_is_well_formed():
    tree = max_similarity_tree(_theta(FOUR_NODE, ["R01", "R02", "R03", "R04"]))
    data = export_tree(tree, make_region_catalog(4), "super_region", "graphml")
    root = ET.fromstring(data.decode("utf-8"))
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    nodes = root.findall(f"{ns}graph/{ns}node")
    edges = root.findall(f"{ns}graph/{ns}edge")
    assert len(nodes) == 4
    assert len(edges) == 3


def test_graphml_writer_is_imported_on_first_use():
    """``xml.sax.saxutils`` pulls in ``urllib.request`` and
    ``http.client``, which only a GraphML export needs."""
    script = ("import sys, ecx.cli\n"
              "assert 'xml.sax.saxutils' not in sys.modules\n")
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_export_csv_edge_list():
    tree = max_similarity_tree(_theta(FOUR_NODE, ["R01", "R02", "R03", "R04"]))
    data = export_tree(tree, make_region_catalog(4), "super_region", "csv")
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "node_a,node_b,similarity"
    assert lines[1] == "R01,R02,0.9"
    assert len(lines) == 4


# a DOT quoted string, whose only escapes are \\ and \"
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)


@given(CATALOG_CODES)
@example(['R,"01', "R02", "a\\b", 'c\\"'])
@settings(max_examples=150, deadline=None)
def test_tree_exports_read_back_any_catalog_code(codes):
    try:
        catalog = RegionCatalog.from_rows(
            (c, f'"{c}" \\', "Kanto") for c in codes)
    except InputDataError:
        return      # test_matrixio checks which codes a catalog refuses
    n = len(catalog)
    assume(n >= 2)
    values = np.fromfunction(lambda i, j: 1.0 / (1.0 + abs(i - j)), (n, n))
    tree = max_similarity_tree(_theta(values, catalog.codes))
    edges = [(a, b, fmt_float(wt)) for a, b, wt in tree.edges]

    data = export_tree(tree, catalog, "super_region", "csv").decode("utf-8")
    assert list(csv.reader(io.StringIO(data, newline=""))) == [
        ["node_a", "node_b", "similarity"], *map(list, edges)]

    data = export_tree(tree, catalog, "super_region", "dot").decode("utf-8")
    assert DOT_STRING.sub("Q", data) == "".join([
        "graph tree {\n", "  Q [label=Q, group=Q];\n" * n,
        *(f"  Q -- Q [weight={wt}];\n" for _, _, wt in edges), "}\n"])
    strings = [re.sub(r"\\(.)", r"\1", text, flags=re.DOTALL)
               for text in DOT_STRING.findall(data)]
    assert strings == [
        *(v for c in sorted(catalog.codes)
          for v in (c, catalog[c].name, catalog[c].super_region)),
        *(c for a, b, _ in edges for c in (a, b))]


def test_export_rejects_unknown_pieces():
    tree = max_similarity_tree(_theta(FOUR_NODE, ["R01", "R02", "R03", "R04"]))
    with pytest.raises(InputDataError, match="unknown format"):
        export_tree(tree, make_region_catalog(4), "super_region", "svg")
    with pytest.raises(InputDataError, match="grouping"):
        export_tree(tree, make_region_catalog(4), "postcode", "dot")
    with pytest.raises(InputDataError, match="missing group"):
        export_tree(tree, make_region_catalog(2), "super_region", "dot")
