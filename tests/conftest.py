"""Shared helpers for building small test matrices and catalogs, and for
running a script in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import ecx
from ecx import BinaryBipartiteMatrix, RegionCatalog, SectorCatalog


# codes with csv's special characters; the catalogs strip codes at the
# ends and refuse one holding "\r", which csv.writer leaves unquoted, or
# a lone surrogate, which UTF-8 cannot encode
CATALOG_CODES = st.lists(
    st.text(st.one_of(st.characters(), st.sampled_from(',"\n\r\t ')),
            max_size=3),
    max_size=4, unique_by=str.strip)


def region_codes(n):
    return [f"R{i + 1:02d}" for i in range(n)]


def sector_codes(n):
    return [f"S{j + 1:02d}" for j in range(n)]


def make_region_catalog(n, groups=("Kanto", "Kansai")):
    return RegionCatalog.from_rows(
        (c, f"Region {c[1:]}", groups[i % len(groups)])
        for i, c in enumerate(region_codes(n))
    )


def make_sector_catalog(n, divisions=("Goods", "Services", "Public")):
    return SectorCatalog.from_rows(
        (c, f"Sector {c[1:]}", divisions[j % len(divisions)], 0)
        for j, c in enumerate(sector_codes(n))
    )


def binary(values) -> BinaryBipartiteMatrix:
    """Wrap a 0/1 array in a BinaryBipartiteMatrix with generated labels."""
    values = np.asarray(values, dtype=np.int64)
    p, s = values.shape
    return BinaryBipartiteMatrix(values, make_region_catalog(p),
                                 make_sector_catalog(s))


def fat_nested(n: int) -> np.ndarray:
    """Square staircase whose thinnest row still has two entries.

    Row i carries ones in columns 0..min(n-1, n-i), giving row degrees
    (n, n, n-1, ..., 2): perfectly nested, and inside the regime where
    the fitness iteration settles on a strictly positive fixed point
    (a staircase with a degree-1 row instead drains that row's fitness
    toward zero and never meets a sup-norm stopping rule).
    """
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, : min(n, n - i + 1)] = 1
    return m


def run_python(script: str, *args, **env) -> subprocess.CompletedProcess:
    """Run the (dedented) ``script`` with ``args`` in a fresh interpreter
    that imports this ``ecx`` and these test helpers; ``env`` adds to the
    environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(ecx.__file__).parents[1]),
                    str(Path(__file__).parent), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120)
