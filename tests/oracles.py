"""Independent reference implementations the tests check against.

Everything here deliberately avoids the code paths (and where possible
the libraries) used by the package itself: eigenpairs come from a
hand-rolled cyclic Jacobi rotation solver instead of LAPACK, spanning
trees from exhaustive Prüfer-sequence enumeration (and their edge
order from a rescan of every tree/outside pair), p-values from mpmath's
hypergeometric incomplete beta at 60 significant digits, Kendall's tau-b
from a count over every pair, line fits from the textbook
normal-equation formulas, the fitness map from an extended-precision
mpmath iteration, firm-table ingest from one record object per row
summed in a sorted tuple order, and matrix CSV reads from one ``csv``
record and one ``float()`` per cell.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------- eigen

def jacobi_eigh(sym: np.ndarray, sweep_tol: float = 1e-14,
                max_sweeps: int = 60) -> Tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns) sorted by descending
    eigenvalue.  O(n^4)-ish and proud of it; only meant for the small
    matrices the tests use.
    """
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.abs(a).max() or 1.0
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # sum the off-diagonal squares directly: the subtraction
        # (a**2).sum() - (diag**2).sum() cancels catastrophically and
        # can report zero while the true norm is still ~sqrt(eps)*|A|
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off <= sweep_tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:      # theta**2 would overflow
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def region_spectrum(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the region transition matrix, via its symmetric twin.

    T = Kp^-1 M Ks^-1 M^T is similar to the symmetric C C^T with
    C = Kp^-1/2 M Ks^-1/2; if C C^T u = λ u then T (Kp^-1/2 u) = λ ·
    (Kp^-1/2 u).  Eigenvalues come back sorted descending; eigenvectors
    are columns (of T's eigenbasis, not normalized).
    """
    m = np.asarray(m, dtype=float)
    kp = m.sum(axis=1)
    ks = m.sum(axis=0)
    c = m / np.sqrt(kp)[:, None] / np.sqrt(ks)[None, :]
    vals, u = jacobi_eigh(c @ c.T)
    return vals, u / np.sqrt(kp)[:, None]


def eci_oracle(m: np.ndarray) -> Tuple[float, np.ndarray]:
    """(λ₂, standardized second eigenvector) for the region matrix.

    The sign is arbitrary — compare callers' vectors up to sign.
    """
    vals, vecs = region_spectrum(m)
    v = vecs[:, 1]
    return float(vals[1]), (v - v.mean()) / v.std()


# ----------------------------------------------------- spanning trees

def _prufer_to_edges(seq: Sequence[int], n: int) -> List[Tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return edges


@lru_cache(maxsize=None)
def all_labeled_trees(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Edge endpoints of every labeled tree on n nodes (Cayley: n^(n-2)).

    Returns (U, V), each of shape (n^(n-2), n-1), so that tree t has
    edges (U[t,k], V[t,k]).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    trees = [
        _prufer_to_edges(seq, n)
        for seq in itertools.product(range(n), repeat=n - 2)
    ]
    arr = np.array(trees, dtype=np.int64)          # (count, n-1, 2)
    return arr[:, :, 0], arr[:, :, 1]


def best_tree_weight(weights: np.ndarray) -> float:
    """Maximum total weight over all labeled spanning trees (brute force)."""
    n = weights.shape[0]
    u, v = all_labeled_trees(n)
    return float(weights[u, v].sum(axis=1).max())


def max_similarity_tree_reference(theta):
    """The maximum-similarity tree by rescanning every (tree, outside) pair.

    At each step the pair with the smallest key (-rounded[a, b], code a,
    code b) joins, exactly as ``ecx.max_similarity_tree`` defines it, in
    O(n^3) steps.  Disconnection is tested on the whole graph up front.
    """
    from ecx import DisconnectedGraphError, InputDataError
    from ecx.projections import ROUND_DECIMALS, SpanningTree, _components

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
    start = min(range(n), key=lambda i: codes[i])
    in_tree = [start]
    outside = set(range(n)) - {start}
    edges = []
    while outside:
        best = None
        for a in in_tree:
            for b in outside:
                key = (-rounded[a, b], codes[a], codes[b])
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        edges.append((codes[a], codes[b], float(w[a, b])))
        in_tree.append(b)
        outside.remove(b)
    total = float(sum(e[2] for e in edges))
    return SpanningTree(tuple(edges), n, total, theta.kind)


# ----------------------------------------------------------- p-values

def p_two_sided(r: float, n: int, dps: int = 60) -> float:
    """Two-sided Pearson p-value, I_{1-r²}((n-2)/2, 1/2), in mpmath.

    ``r`` enters as its exact binary value, not its shortest decimal:
    near |r| = 1 the two differ in 1 - r² by far more than the 1e-9 the
    tests hold the program to.
    """
    from mpmath import mp

    with mp.workdps(dps):
        r = mp.mpf(r)
        return float(mp.betainc(mp.mpf(n - 2) / 2, mp.mpf(1) / 2, 0, 1 - r * r,
                                regularized=True))


def kendall_tau_b(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall's tau-b, (concordant - discordant) / sqrt((n0 - ties in a)
    (n0 - ties in b)), counted over every unordered pair; NaN when either
    side is constant."""
    concordant = discordant = ties_a = ties_b = pairs = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        pairs += 1
        da, db = a[i] - a[j], b[i] - b[j]
        ties_a += da == 0
        ties_b += db == 0
        concordant += da * db > 0
        discordant += da * db < 0
    denominator = (pairs - ties_a) * (pairs - ties_b)
    if denominator == 0:
        return math.nan
    return (concordant - discordant) / math.sqrt(denominator)


# ------------------------------------------------------------- fitting

def ols_line(u: Sequence[float], w: Sequence[float]) -> Tuple[float, float]:
    """(slope, intercept) of w on u from the raw normal equations."""
    n = len(u)
    su = math.fsum(u)
    sw = math.fsum(w)
    suu = math.fsum(x * x for x in u)
    suw = math.fsum(x * y for x, y in zip(u, w))
    slope = (n * suw - su * sw) / (n * suu - su * su)
    return slope, (sw - slope * su) / n


def exp_fit_oracle(x, y) -> Tuple[float, float]:
    """(a, b) of y = a·e^(bx) by least squares on (x, ln y)."""
    b, loga = ols_line(list(x), [math.log(v) for v in y])
    return math.exp(loga), b


def power_fit_oracle(x, y) -> Tuple[float, float]:
    """(a, b) of y = a·x^b by least squares on (ln x, ln y)."""
    b, loga = ols_line([math.log(v) for v in x], [math.log(v) for v in y])
    return math.exp(loga), b


# ------------------------------------------------------------- fitness

def fitness_reference(m: np.ndarray, tol: str = "1e-30",
                      max_iter: int = 5000, dps: int = 60):
    """Extended-precision fitness/complexity iteration.

    Runs the same (Jacobi-style, mean-1 normalized) map in mpmath
    arithmetic until the sup-norm change drops below ``tol`` and
    returns (F, Q, iterations) as float lists.
    """
    from mpmath import mp

    with mp.workdps(dps):
        rows, cols = m.shape
        mm = [[mp.mpf(int(m[i, j])) for j in range(cols)] for i in range(rows)]
        f = [mp.mpf(1)] * rows
        q = [mp.mpf(1)] * cols
        eps = mp.mpf(tol)
        its = 0
        for its in range(1, max_iter + 1):
            f_new = [mp.fsum(mm[i][j] * q[j] for j in range(cols))
                     for i in range(rows)]
            q_new = []
            for j in range(cols):
                denom = mp.fsum(mm[i][j] / f[i] for i in range(rows))
                q_new.append(1 / denom)
            mean_f = mp.fsum(f_new) / rows
            mean_q = mp.fsum(q_new) / cols
            f_new = [v / mean_f for v in f_new]
            q_new = [v / mean_q for v in q_new]
            delta = max(
                max(abs(a - b) for a, b in zip(f_new, f)),
                max(abs(a - b) for a, b in zip(q_new, q)),
            )
            f, q = f_new, q_new
            if delta < eps:
                break
        return [float(v) for v in f], [float(v) for v in q], its


# -------------------------------------------------------------- ingest

@dataclass(frozen=True)
class FirmRecord:
    firm_id: str
    region_code: str
    sector_code: str
    annual_sales: float
    employees: int


def _quote_open(text: str) -> bool:
    """Whether ``text``, read as the start of one CSV record, ends inside
    a quoted field.  A quote opens a field only as its first character;
    inside, a doubled quote stands for one quote, and after the closing
    quote the field goes on unquoted until the next comma."""
    state = "start"
    for ch in text:
        if state == "quoted":
            if ch == '"':
                state = "quote"
        elif state == "quote":
            state = {'"': "quoted", ",": "start"}.get(ch, "field")
        elif ch == ",":
            state = "start"
        elif ch == '"' and state == "start":
            state = "quoted"
        else:
            state = "field"
    return state == "quoted"


def parse_firms_reference(text: str, region_codes: Sequence[str],
                          sector_codes: Sequence[str], newline=""):
    """Firm-table parse with one ``FirmRecord`` per accepted row.

    Applies the checks of ``ecx.ingest.parse_firms`` in the same order
    and returns (records, [(line, reason), ...], zero-sales count).  The
    lines are those a UTF-8 text stream opened with ``newline`` reads.  The
    header is assumed valid and is skipped.  A record whose quoted field
    spans lines takes the number of its first line; one that ``csv``
    refuses raises ``ValueError("record from line N: ...")``.
    """
    regions, sectors = set(region_codes), set(sector_codes)
    records, rejections, zero_sales = [], [], 0
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                              encoding="utf-8", newline=newline)
    lines = enumerate(stream.readlines()[1:], start=2)
    for lineno, line in lines:
        if not line.strip():
            continue
        if '"' in line:
            # a quoted field open at the end of the line goes on in the
            # next line; the joined text is one record
            while _quote_open(line):
                more = next(lines, None)
                if more is None:
                    break
                line += more[1]
            # csv refuses a newline inside an unquoted field (read as
            # the end of a line) before it sees whether the quotes close
            try:
                fields = next(csv.reader([line]))
            except csv.Error as exc:
                raise ValueError(f"record from line {lineno}: {exc}")
            if _quote_open(line):
                rejections.append((lineno, "malformed row"))
                continue
        else:
            fields = line.rstrip("\r\n").split(",")
        if len(fields) != 5:
            rejections.append((lineno, "malformed row"))
            continue
        firm_id, rcode, scode, sales_s, emp_s = (f.strip() for f in fields)
        if rcode not in regions:
            rejections.append((lineno, f"unknown region code {rcode!r}"))
            continue
        if scode not in sectors:
            rejections.append((lineno, f"unknown sector code {scode!r}"))
            continue
        if not sales_s:
            rejections.append((lineno, "missing sales"))
            continue
        if not emp_s:
            rejections.append((lineno, "missing employees"))
            continue
        try:
            sales = float(sales_s)
        except ValueError:
            rejections.append((lineno, "invalid sales"))
            continue
        if not np.isfinite(sales):
            rejections.append((lineno, "invalid sales"))
            continue
        if sales < 0:
            rejections.append((lineno, "negative sales"))
            continue
        try:
            employees = int(emp_s)
        except ValueError:
            rejections.append((lineno, "invalid employees"))
            continue
        if employees < 0:
            rejections.append((lineno, "negative employees"))
            continue
        if sales == 0.0:
            zero_sales += 1
        records.append(FirmRecord(firm_id, rcode, scode, sales, employees))
    return records, rejections, zero_sales


def aggregate_sales_reference(records, region_codes: Sequence[str],
                              kept_codes: Sequence[str]) -> np.ndarray:
    """Region x kept-sector sums of ``parse_firms_reference`` records.

    Records of sectors outside ``kept_codes`` are dropped.  Each cell is a
    Python float sum taken in sorted (region, sector, sales, firm_id)
    order, so it overflows to inf instead of raising.
    """
    rid = {c: i for i, c in enumerate(region_codes)}
    col = {c: j for j, c in enumerate(kept_codes)}
    keyed = sorted((rid[rec.region_code], col[rec.sector_code],
                    rec.annual_sales, rec.firm_id)
                   for rec in records if rec.sector_code in col)
    cells = [[0.0] * len(kept_codes) for _ in region_codes]
    for i, j, sales, _ in keyed:
        cells[i][j] += sales
    return np.array(cells, dtype=np.float64)


# ------------------------------------------------------------ matrix CSV

def read_matrix_reference(path):
    """Matrix CSV read one ``csv`` record and one ``float()`` per cell.

    Returns (values, row_codes, col_codes) as ``ecx.matrixio.
    read_matrix_csv`` does; blank records are skipped, and a row with the
    wrong field count or a cell ``float()`` refuses raises
    ``InputDataError``.  ``float()`` also takes ``1_000`` and non-ASCII
    digits, which ``read_matrix_csv`` refuses.
    """
    from ecx import InputDataError

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputDataError(f"{path}: empty matrix file") from None
        col_codes = tuple(header[1:])
        row_codes = []
        rows = []
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(col_codes) + 1:
                raise InputDataError(
                    f"{path}: row {len(rows) + 2} has {len(rec)} fields, "
                    f"expected {len(col_codes) + 1}"
                )
            row_codes.append(rec[0])
            try:
                rows.append([float(v) for v in rec[1:]])
            except ValueError as exc:
                raise InputDataError(f"{path}: {exc}") from None
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(col_codes)))
    return values, tuple(row_codes), col_codes
