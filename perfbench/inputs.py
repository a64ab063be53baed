"""Seeded input generators for the hypercurv benchmark.

Every generator takes the seed as an argument and returns plain JSON-ready
data; where an output check needs it, the ground truth comes back beside
the data and is never handed to the library. The same seed gives
byte-identical JSON. Generation uses ``random.Random``, whose stream is
fixed across Python versions, and numpy only for exact-order arithmetic.

All inputs are valid by construction, because one invalid item makes a
whole CLI batch exit 2: ``nablaA`` is totally symmetric and trace-free and
rides only on minimal states, and ``parallel`` is set only on catalog
spectra.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

POINT_MIXED_SIZE = 4250
CLASSIFY_BULK_SIZE = 21000
# A pass runs one slice of the batch, so that it takes about a tenth of a
# second and a 20 s run holds enough passes for a tail percentile with ten
# beyond it. Passes cycle through the slices, so every seed's run sees the
# whole mix; the slice count is odd, so traced and untraced passes, which
# alternate, both visit every slice.
POINT_MIXED_PASS = 250
CLASSIFY_BULK_PASS = 1000

# hypercurv's default cluster tolerance. Band items put a spectral gap at
# exactly this threshold, the middle of the indeterminate band
# (threshold/2, 2 threshold]; near items put it 100 times above.
CLUSTER_TOL = 1e-8
NEAR_GAP = 1e-6

# Geometries integrated by the quadrature workload, with their exact Euler
# characteristic, and the per-angle resolution of the product rule. The
# catalog is the input, so the seed does not change it.
QUADRATURE = (("clifford:4:1", 0), ("clifford:4:2", 4), ("geodesic:4", 2))
QUADRATURE_RES = 6

_PATTERNS = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
_NABLA_ORDER = tuple((i, j, k) for i in range(4) for j in range(i, 4) for k in range(j, 4))


def _catalog_spectra():
    out = []
    for k in (1, 2, 3):
        out.append([math.sqrt((4 - k) / k)] * k + [-math.sqrt(k / (4 - k))] * (4 - k))
    out.append([0.0] * 4)
    return out


_CATALOG = _catalog_spectra()


def _sym_matrix(rng: random.Random, n: int, scale: float, minimal: bool) -> np.ndarray:
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            M[i, j] = M[j, i] = rng.gauss(0.0, scale)
    if minimal:
        M -= np.trace(M) / n * np.eye(n)
    return M


def _spectrum(rng: random.Random, n: int, scale: float, minimal: bool) -> list:
    lam = [rng.gauss(0.0, scale) for _ in range(n)]
    if minimal:
        mean = sum(lam) / n
        lam = [x - mean for x in lam]
    return lam


def _tracefree_nabla(rng: random.Random, scale: float) -> list:
    """Flat 20-vector of a totally symmetric, trace-free rank-3 tensor on R^4."""
    T = np.zeros((4, 4, 4))
    for idx in _NABLA_ORDER:
        value = rng.gauss(0.0, scale)
        for p in set(itertools.permutations(idx)):
            T[p] = value
    v = np.einsum("iik->k", T)
    g = np.eye(4)
    sym = (np.einsum("ij,k->ijk", g, v) + np.einsum("ik,j->ijk", g, v)
           + np.einsum("jk,i->ijk", g, v)) / 3.0
    # the trace of sym(g v) is (n + 2)/3 v, so 3/(n + 2) = 1/2 removes it
    T = T - 0.5 * sym
    return [float(T[idx]) for idx in _NABLA_ORDER]


def point_mixed(seed: int, size: int = POINT_MIXED_SIZE) -> list:
    """Batch for ``hypercurv point``: the mix every stage of the report sees.

    About 1/8 of the states have n in {3, 5, 6} (Gauss pack only), 1/16
    are parallel catalog spectra (Clifford, geodesic; the scalar Bochner
    path), 1/16 are (3,1) LCF spectra, and the rest are generic n = 4
    states, half full symmetric ``A`` and half diagonal ``lambda``, half
    minimal and half mean-curved, with c in {-1, 0, 1}. Half of the
    generic minimal states carry random trace-free ``nablaA`` and
    ``hessS``, which violate the Simons identity and so raise Bach-trace
    warnings.
    """
    rng = random.Random(seed)
    batch = []
    for _ in range(size):
        r = rng.random()
        c = rng.choice((-1.0, 0.0, 1.0))
        scale = rng.uniform(0.5, 2.0)
        minimal = rng.random() < 0.5
        if r < 1 / 8:
            n = rng.choice((3, 5, 6))
            if rng.random() < 0.5:
                item = {"n": n, "c": c, "A": _sym_matrix(rng, n, scale, minimal).tolist()}
            else:
                item = {"n": n, "c": c, "lambda": _spectrum(rng, n, scale, minimal)}
        elif r < 3 / 16:
            lam = list(rng.choice(_CATALOG))
            rng.shuffle(lam)
            item = {"n": 4, "c": 1.0, "lambda": lam, "parallel": True}
        elif r < 1 / 4:
            a = rng.uniform(-scale, scale)
            b = -3.0 * a if minimal else rng.uniform(-scale, scale)
            lam = [a, a, a, b]
            rng.shuffle(lam)
            item = {"n": 4, "c": c, "lambda": lam}
        else:
            if rng.random() < 0.5:
                item = {"n": 4, "c": c, "A": _sym_matrix(rng, 4, scale, minimal).tolist()}
            else:
                item = {"n": 4, "c": c, "lambda": _spectrum(rng, 4, scale, minimal)}
            if minimal and rng.random() < 0.5:
                item["nablaA"] = _tracefree_nabla(rng, scale)
                item["hessS"] = _sym_matrix(rng, 4, scale, False).tolist()
        batch.append(item)
    return batch


def _truth(lam: list) -> tuple:
    """(m, partition, w) of a spectrum whose clusters are exactly equal floats."""
    desc = sorted(lam, reverse=True)
    partition = tuple(len(list(group)) for _, group in itertools.groupby(desc))
    w = 1 if max(partition) >= 3 else (3 if len(partition) == 4 else 2)
    return len(partition), partition, w


def classify_bulk(seed: int, size: int = CLASSIFY_BULK_SIZE):
    """Spectra for ``hypercurv classify`` and the (m, partition, w) they must get.

    Multiplicity patterns (1,1,1,1), (2,1,1), (2,2), (3,1) and (4) are
    drawn uniformly, with distinct values at least 0.15 scale apart. About
    5% of items split one cluster by a near gap of 1e-6 (1 + max|l|), which
    is resolved, and 5% by a gap at the cluster threshold itself, in the
    indeterminate band; those have ground truth None and must come back
    indeterminate. Half the spectra are trace-free (minimal).
    """
    rng = random.Random(seed)
    items, truth = [], []
    for _ in range(size):
        scale = rng.uniform(0.5, 3.0)
        minimal = rng.random() < 0.5
        r = rng.random()
        split = "near" if r < 0.05 else ("band" if r < 0.10 else None)
        pattern = list(rng.choice(_PATTERNS[1:] if split else _PATTERNS))
        rng.shuffle(pattern)
        value = rng.uniform(-scale, scale)
        lam = []
        for size_k in pattern:
            lam += [value] * size_k
            value -= scale * rng.uniform(0.15, 0.8)
        if minimal:
            mean = sum(lam) / 4
            lam = [x - mean for x in lam]
        if split:
            # move the last member of a multiple cluster down by the gap,
            # then shift everything back so the trace is unchanged
            start = 0
            for size_k in pattern:
                if size_k >= 2:
                    break
                start += size_k
            pos = start + size_k - 1
            factor = NEAR_GAP if split == "near" else CLUSTER_TOL
            gap = factor * (1.0 + max(abs(x) for x in lam))
            lam[pos] -= gap
            if minimal:
                lam = [x + gap / 4 for x in lam]
        truth.append(None if split == "band" else _truth(lam))
        rng.shuffle(lam)
        items.append({"lambda": lam})
    return items, truth
