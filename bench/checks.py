"""Checks the benchmark applies to the program's outputs.

Each check recomputes its answer apart from the program or tests a property
the method must have; none compares against a stored copy of an earlier
output.  Checks return the worst defect they saw and raise ``CheckFailed``
with a reason when a property does not hold.
"""

from __future__ import annotations

import math

import numpy as np

RELATION_TOL = 1e-6   # the bound `maxrep verify` uses for "ok"


class CheckFailed(Exception):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# exact products
#
# A float64 matrix is an exact dyadic rational matrix N * 2^-k with N an
# integer matrix; products of such matrices in Python integers are exact, so
# a relation defect computed this way carries no rounding of its own.


def _dyadic(m):
    require(np.all(np.isfinite(m)), "matrix has a NaN or infinite entry")
    mant, expo = np.frexp(np.asarray(m, dtype=np.float64))
    ints = (mant * 2.0 ** 53).astype(np.int64)
    shift = 53 - expo
    k = int(shift[ints != 0].max()) if np.any(ints) else 0
    out = np.empty(m.shape, dtype=object)
    for idx, v in np.ndenumerate(ints):
        out[idx] = int(v) << (k - int(shift[idx])) if v else 0
    return out, k


def _exact_product(mats):
    acc, k = _dyadic(mats[0])
    for m in mats[1:]:
        nxt, kn = _dyadic(m)
        acc, k = acc.dot(nxt), k + kn
    return acc, k


def _sp_inverse(g):
    n = g.shape[0] // 2
    a, b, c, d = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    return np.block([[d.T, -b.T], [-c.T, a.T]])


def relation_defect(genus, gens):
    """Max entry of [A_g,B_g]...[A_1,B_1] C_m...C_1 - I, computed exactly.

    Inverses use the symplectic formula, exact on the stored entries, as the
    program's own relation check and `maxrep verify` do.
    """
    word = []
    for i in range(genus, 0, -1):
        a, b = gens[f"A{i}"], gens[f"B{i}"]
        word += [a, b, _sp_inverse(a), _sp_inverse(b)]
    m = len(gens) - 2 * genus
    word += [gens[f"C{j}"] for j in range(m, 0, -1)]
    prod, k = _exact_product(word)
    one = 1 << k
    for i in range(prod.shape[0]):
        prod[i, i] -= one
    return max(abs(v) for v in prod.flat) / one


def symplectic_defect(g):
    n = g.shape[0] // 2
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return float(np.max(np.abs(g.T @ j @ g - j))) / max(1.0, float(np.max(np.abs(g)))) ** 2


def spectrum_defect(g, length):
    """Relative distance from spec(g) to spec(L) together with its inverses."""
    lam = np.linalg.eigvals(length)
    want = list(np.concatenate([lam, 1.0 / lam]))
    worst = 0.0
    for mu in sorted(np.linalg.eigvals(g), key=abs):
        i = min(range(len(want)), key=lambda t: abs(want[t] - mu))
        worst = max(worst, abs(want[i] - mu) / abs(want[i]))
        want.pop(i)
    return worst


def spd_by_cholesky(s):
    """Cholesky of the symmetric part, after checking the asymmetry is tiny."""
    scale = max(1.0, float(np.max(np.abs(s))))
    require(float(np.max(np.abs(s - s.T))) <= 1e-8 * scale, "product is not symmetric")
    a = 0.5 * (s + s.T)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        require(d > 0.0, "product is not positive definite")
        low[j, j] = math.sqrt(d)
        for i in range(j + 1, n):
            low[i, j] = (a[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]


# ---------------------------------------------------------------------------
# rep files (the program's `--out` format), read without the program's parser


def parse_rep_text(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    require(lines and lines[0].split() == ["maxrep-rep", "1"], "rep file header")
    n = genus = m = None
    gens = {}
    pos = 1
    while pos < len(lines):
        toks = lines[pos].split()
        pos += 1
        if toks[0] == "n":
            n = int(toks[1])
        elif toks[0] == "surface":
            genus, m = int(toks[1]), int(toks[2])
        elif toks[0] == "generator":
            rows = [[float(t) for t in ln.split()] for ln in lines[pos:pos + 2 * n]]
            require(lines[pos + 2 * n] == "end", "generator block not closed")
            pos += 2 * n + 1
            gens[toks[1]] = np.array(rows)
        else:
            raise CheckFailed(f"unknown rep file directive {toks[0]!r}")
    require(n is not None and genus is not None, "rep file lacks n or surface")
    return n, genus, m, gens


# ---------------------------------------------------------------------------
# boundary action


def _chart_at_zero(g, p):
    """(g', p') with p' finite: conjugate by J when p is infinity."""
    if p is not None:
        return g, p
    n = g.shape[0] // 2
    z, i = np.zeros((n, n)), np.eye(n)
    jm = np.block([[z, -i], [i, z]])
    return jm @ g @ jm.T, np.zeros((n, n))


def attracting_defect(g, p):
    """(fixed-point defect, contraction factor) of g at the point p (None = infinity).

    The action is X -> (AX + B)(CX + D)^{-1}; at a fixed point its
    differential is dX -> (A - pC) dX (Cp + D)^{-1}, whose spectral radius
    is at most rho(A - pC) rho((Cp + D)^{-1}).
    """
    g, p = _chart_at_zero(g, p)
    n = p.shape[0]
    a, b, c, d = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    r = np.linalg.inv(c @ p + d)
    img = (a @ p + b) @ r
    fixed = float(np.max(np.abs(img - p))) / max(1.0, float(np.max(np.abs(p))))
    rho = lambda x: float(np.max(np.abs(np.linalg.eigvals(x))))
    return fixed, rho(a - p @ c) * rho(r)
