"""Limit-set sampling for surface representations.

When every boundary generator image has a transverse fixed-point pair, the
attracting fixed points of group elements sample the limit set.  The sample
reports pairwise transversality of the distinct sampled points and the
distribution of Maslov indices over sampled triples; for a maximal
representation the indices concentrate on +-n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSHyperbolic
from .gluing import SurfaceRep
from .maslov import _triple_indices
from .matcore import DEFAULT_TOL, Tolerance, _unit_circle_masks, check_finite
from .normalform import _attracting, _eigenvector_bases, _subspace_fixed_points
from .symplectic import BoundaryPoint, _pair_spectra, _stack_points, sp_inverse

__all__ = ["LimitSample", "limit_set_sample"]


@dataclass(frozen=True)
class LimitSample:
    points: tuple[tuple[str, BoundaryPoint], ...]   # word -> attracting point
    distinct_points: tuple[BoundaryPoint, ...]      # the same objects as in points
    transverse_fraction: float
    beta_histogram: dict[int, int]
    skipped_words: int
    findings: tuple[str, ...] = field(default=())


@functools.cache
def _word_tables(letters: tuple[str, ...], max_len: int) -> tuple:
    """(names, stops, prefix, last, reps, source, carrier) for the reduced
    words of length 1..max_len over letters and their inverses ("x" and
    "x-"), each length's extending the last's: the words joined by spaces;
    the start and end of each length; the row of w[:-1] in the stack
    [I, words] and the letter w[-1] (letter i + k inverts letter i of k); the
    rows of the first words of the classes of cyclically reduced words under
    rotation and inversion.  A word p v p^-1, v = b a a rotation of r = a b
    (or of r^-1), takes the expanding subspace of r (or of r^-1) moved by
    the shorter of p b and p a^-1: source indexes the bases of [reps, reps
    inverted] and carrier is that word's row."""
    k = len(letters)
    inv = [(l + k) % (2 * k) for l in range(2 * k)]
    invert = lambda w: tuple(inv[l] for l in reversed(w))
    rows, stops, words = [()], [0], [()]
    for _ in range(max_len):
        words = [w + (l,) for w in words for l in range(2 * k) if not w or l != inv[w[-1]]]
        rows += words
        stops.append(len(rows) - 1)
    row = {w: i for i, w in enumerate(rows)}
    moved, reps = {}, []   # word -> (class, side, carrier)
    for w in rows[1:]:
        j = 0
        while w[j] == inv[w[-1 - j]]:   # w = p v p^-1, p = w[:j]
            j += 1
        if j:   # v is shorter, so assigned; p b and p a^-1 are reduced
            cls, side, b = moved[w[j:len(w) - j]]
            moved[w] = cls, side, w[:j] + b
        elif w not in moved:
            for side, r in enumerate((w, invert(w))):
                for a in range(len(w)):
                    moved.setdefault(r[a:] + r[:a], (len(reps), side, r[a:] if 2 * a >= len(w) else invert(r[:a])))
            reps.append(row[w])
    alphabet = [*letters, *(l[:-1] if l.endswith("-") else l + "-" for l in letters)]
    index = lambda f: np.array([f(w) for w in rows[1:]], dtype=np.intp)
    return (tuple(" ".join(alphabet[l] for l in w) for w in rows[1:]), stops, index(lambda w: row[w[:-1]]),
            index(lambda w: w[-1]), np.array(reps), index(lambda w: moved[w][0] + len(reps) * moved[w][1]),
            index(lambda w: row[moved[w][2]]))


# matrix entries per batched eigvalsh in _count_transverse (512 KB of float64)
_PAIR_CHUNK_ENTRIES = 1 << 16
# points closer than this, relative to max(1, |point|), are identified
_CLUSTER_TOL = 1e-8


def _unrank3(ranks, d: int) -> np.ndarray:
    """Rows (i, j, k) of itertools.combinations(range(d), 3) at lexicographic ranks.

    Rank r of (i, j, k) is colexicographic rank C(d, 3) - 1 - r of
    (d-1-k, d-1-j, d-1-i), whose combinadic digits c3 > c2 > c1 are each the
    largest c with C(c, size) within the rest: a searchsorted in a table.
    """
    c = np.arange(d, dtype=np.int64)
    rest = math.comb(d, 3) - 1 - np.asarray(ranks, dtype=np.int64)
    out = np.empty((rest.size, 3), dtype=np.intp)
    for col, table in enumerate((c * (c - 1) // 2 * (c - 2) // 3, c * (c - 1) // 2, c)):
        top = np.searchsorted(table, rest, side="right") - 1
        rest = rest - table[top]
        out[:, col] = d - 1 - top
    return out


def _cluster(stack) -> np.ndarray:
    """Indices of a point stack's points kept by first-come greedy clustering:
    a point is dropped within _CLUSTER_TOL * max(1, |point|) of a point kept
    before it, entrywise; infinity is near infinity only.

    A near pair is within 2 * _CLUSTER_TOL * either scale, which moves the
    trace by at most n times that: the pairs inside that window of the trace
    order (widened for rounding) are compared in one gather.  In rounds, a
    point whose earlier near points are decided is dropped if one is kept.
    """
    x, at_inf, scale = stack
    n, bound = x.shape[1], _CLUSTER_TOL * scale
    fin = np.flatnonzero(~at_inf)
    order = fin[np.argsort(np.trace(x[fin], axis1=1, axis2=2), kind="stable")]
    t = np.trace(x[order], axis1=1, axis2=2)
    reach = n * (2 * bound + 4 * n * np.finfo(float).eps * scale)
    span = np.searchsorted(t, t + reach[order], "right") - np.arange(order.size) - 1
    k = np.repeat(np.arange(order.size), span)
    m = order[k + 1 + np.arange(k.size) - (np.cumsum(span) - span)[k]]
    p, q = np.maximum(order[k], m), np.minimum(order[k], m)
    live = np.max(np.abs(x[p] - x[q]), axis=(1, 2), initial=0.0) <= bound[p]   # q's word comes first
    kept = ~at_inf
    kept[np.flatnonzero(at_inf)[:1]] = True
    while live.any():   # the near pairs (p, q) of each point p not yet decided
        p, q = p[live], q[live]
        pending = np.bincount(p, minlength=kept.size) > 0
        kept[p[kept[q] & ~pending[q]]] = False
        live = kept[p] & pending[q]
    return np.flatnonzero(kept)


def _count_transverse(stack, tol: Tolerance) -> int:
    """Number of pairs i < j of a _point_stack's points transverse at tol.

    A link between trace-adjacent finite points passes when it is transverse
    with positive eigenvalues.  In a run of passing links every pair is
    transverse by Weyl: lambda_min(X_j - X_i) >= the links' sum of lambda_min
    > eq_tol * max(scale_i, scale_j).  Pairs straddling a failed link are
    checked per block of rows of the pair triangle; infinity is transverse
    to every finite point only.
    """
    x, at_inf, _ = stack
    fin = np.flatnonzero(~at_inf)
    order = fin[np.argsort(np.trace(x[fin], axis1=1, axis2=2), kind="stable")]
    eigs, ok = _pair_spectra(stack, order[:-1], order[1:], tol)
    run = np.zeros(at_inf.size, dtype=np.intp)
    run[order[1:]] = np.cumsum(~(ok & np.all(eigs > 0, axis=-1)))
    sizes = np.bincount(run[fin])
    count = fin.size * (at_inf.size - fin.size) + int(np.sum(sizes * (sizes - 1) // 2))
    if sizes.size > 1:
        d, n = fin.size, x.shape[1]
        rows = max(1, _PAIR_CHUNK_ENTRIES // (d * n * n))
        for a in range(0, d - 1, rows):
            i, j = np.triu_indices(min(rows, d - a), a + 1, d)
            i, j = fin[i + a], fin[j]
            cross = run[i] != run[j]
            count += int(np.count_nonzero(_pair_spectra(stack, i[cross], j[cross], tol)[1]))
    return count


def _word_points(mats: np.ndarray, reps, source, carrier, tol: Tolerance) -> tuple:
    """(values, at_inf, sampled): each word's attracting point in the stack
    mats = [I, words], from the class representatives' bases moved by the
    carriers; a word whose moved point fails its certificate or is not fixed
    to rounding, and every word when the representatives' eigen-decomposition
    fails, takes the Schur rescue of _subspace_fixed_points."""
    words = mats[1:]
    n = words.shape[-1] // 2
    try:
        w, v = np.linalg.eig(mats[reps])
    except np.linalg.LinAlgError:
        zs, direct = np.empty((len(words), 2 * n, n)), np.zeros(len(words), dtype=bool)
    else:   # r's contracting eigenvectors are r^-1's expanding ones, of eigenvalues 1 / lambda
        bases, direct = _eigenvector_bases(np.concatenate([w, 1 / w]), np.concatenate([v, v]), tol)
        direct = direct[source]
        zs = np.linalg.qr(words @ (words @ (mats[carrier] @ bases[source])))[0]
    found, at_inf, moved, band, rho, exact = _subspace_fixed_points(words, tol, zs, direct)
    _attracting(found, moved, band, rho, tol, exact | ~direct[found.live] | (carrier[found.live] == 0))
    sampled = np.array([r is None for r in found.refusals])
    own = np.flatnonzero(direct & ~sampled)
    mine, mine_inf, moved, band, rho, _ = _subspace_fixed_points(words[own], tol, zs[own], ~direct[own])
    sampled[own] = [r is None for r in _attracting(mine, moved, band, rho, tol).refusals]
    found.values[own], at_inf[own] = mine.values, mine_inf
    return found.values, at_inf, sampled


# at most this many triples of distinct points go into the Maslov histogram
_MAX_TRIPLES = 200


def limit_set_sample(rep: SurfaceRep, max_word_length: int = 4,
                     tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> LimitSample:
    """Attracting fixed points of words up to a length bound, with statistics.

    Requires every boundary generator image to have a transverse fixed-point
    pair (no unit-modulus spectrum); words whose image fails that condition
    are skipped and counted.  Points closer than 1e-8 * max(1, |point|) are
    identified before statistics, since distinct words routinely share an
    axis.

    The points are rho-equivariant: one eigen-decomposition serves a class of
    cyclically reduced words (_word_tables; 119 rows for 936 words on one
    pants), and two multiplications by a word's own matrix refine its moved
    basis; a word whose moved point fails takes the Schur rescue alone.  The
    skipped words are those of one decomposition per word.  The points stay
    one array stack until the result's BoundaryPoints are made.

    Sampled triples are seeded: when the D distinct points have more than
    200 triples, rng = np.random.default_rng(seed) draws
    rng.choice(C(D, 3), size=200, replace=False) and each drawn index
    names the triple at that position of itertools.combinations(range(D), 3)
    (lexicographic order), unranked in one batch; otherwise every triple is
    used in that order.  Clustering (first-come greedy in word order, resolved
    in rounds) and the transverse count walk the trace order: the distinct
    points of a maximal representation form a Loewner chain, whose
    trace-adjacent links certify every pair, and only pairs straddling a
    failed link are checked one by one.  The Maslov index of every drawn
    triple, sgn(X2 - X1) + sgn(X3 - X2) + sgn(X1 - X3) with terms at infinity
    dropped, comes from one kernel call; a triple with a non-transverse pair
    becomes a finding.
    A sample whose every word is skipped refuses with NotSHyperbolic.
    """
    if max_word_length < 1:
        raise ValueError(f"max_word_length must be at least 1, got {max_word_length}")
    for j, c in enumerate(rep.c_imgs, start=1):
        if np.any(_unit_circle_masks(c.m, tol.unit_circle_band)[1]):
            raise NotSHyperbolic(f"boundary generator C{j} has unit-modulus spectrum", "unit-circle obstruction",
                                 float(np.abs(np.abs(np.linalg.eigvals(c.m)) - 1.0).min()), tol.unit_circle_band)
    gens = rep.generator_images()
    letter_stack = np.array([g.m for g in gens.values()] + [sp_inverse(g).m for g in gens.values()])

    findings: list[str] = []
    # one word length at a time: each level's stack is the previous level's
    # stack times the letter stack, in _word_tables order
    names, stops, prefix, last, *classes = _word_tables(tuple(gens), max_word_length)
    mats = np.empty((1 + stops[-1], *letter_stack.shape[1:]))
    mats[0] = np.eye(mats.shape[-1])
    for a, b in itertools.pairwise(stops):
        mats[1 + a:1 + b] = check_finite(mats[prefix[a:b]] @ letter_stack[last[a:b]])
    values, at_inf, sampled = _word_points(mats, *classes, tol)
    skipped = int(np.count_nonzero(~sampled))

    if skipped == len(names):
        raise NotSHyperbolic(f"all {skipped} words up to length {max_word_length} "
                             "were skipped: none has an attracting point", "sampled words", 0, 1)
    stack = tuple(a[sampled] for a in (values, at_inf, np.maximum(1.0, np.max(np.abs(values), axis=(1, 2)))))
    keep = _cluster(stack)
    pts = _stack_points(*stack[:2])
    distinct = [pts[i] for i in keep]
    stack = tuple(a[keep] for a in stack)
    n_pairs = math.comb(len(distinct), 2)
    n_trans = _count_transverse(stack, tol)
    frac = n_trans / n_pairs if n_pairs else 1.0
    if n_pairs and n_trans < n_pairs:
        findings.append(f"{n_pairs - n_trans} of {n_pairs} point pairs "
                        "not transverse")

    rng = np.random.default_rng(seed)
    n_triples = math.comb(len(distinct), 3)
    ranks = (rng.choice(n_triples, size=_MAX_TRIPLES, replace=False)
             if n_triples > _MAX_TRIPLES else np.arange(n_triples))
    triples = _unrank3(ranks, len(distinct))
    hist: dict[int, int] = {}
    for (i, j, k), b, exc in zip(triples.tolist(), *_triple_indices(stack, triples, tol)):
        if exc is not None:   # degenerate triple
            findings.append(f"triple ({i},{j},{k}) failed: {exc}")
            continue
        hist[b] = hist.get(b, 0) + 1
    n = rep.n
    off = sum(v for b, v in hist.items() if abs(b) != n)
    if off:
        findings.append(f"{off} sampled triples with |index| != {n}")
    return LimitSample(
        points=tuple(zip(itertools.compress(names, sampled), pts)),
        distinct_points=tuple(distinct),
        transverse_fraction=frac,
        beta_histogram=hist,
        skipped_words=skipped,
        findings=tuple(findings),
    )
