"""Limit-set sampling for surface representations.

When every boundary generator image has a transverse fixed-point pair, the
attracting fixed points of group elements sample the limit set.  The sample
reports pairwise transversality of the distinct sampled points and the
distribution of Maslov indices over sampled triples; for a maximal
representation the indices concentrate on +-n.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxRepError, NotSHyperbolic
from .gluing import SurfaceRep
from .maslov import Triple, maslov
from .matcore import DEFAULT_TOL, Tolerance, _unit_circle_masks, norm_inf
from .normalform import _attracting_points
from .symplectic import BoundaryPoint, sp_inverse

__all__ = ["LimitSample", "limit_set_sample", "reduced_words"]


@dataclass(frozen=True)
class LimitSample:
    points: tuple[tuple[str, BoundaryPoint], ...]   # word -> attracting point
    distinct_points: tuple[BoundaryPoint, ...]
    transverse_fraction: float
    beta_histogram: dict[int, int]
    skipped_words: int
    findings: tuple[str, ...] = field(default=())


def reduced_words(letters: list[str], max_len: int):
    """Freely reduced words over letters and formal inverses.

    Letters are labels; the inverse of "x" is "x-" and vice versa.  Yields
    tuples of labels of length 1..max_len with no adjacent cancellation.
    """
    def inverse(l: str) -> str:
        return l[:-1] if l.endswith("-") else l + "-"

    alphabet = letters + [inverse(l) for l in letters]

    def extend(word):
        for l in alphabet:
            if word and inverse(l) == word[-1]:
                continue
            yield word + (l,)

    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for w2 in extend(w):
                nxt.append(w2)
                yield w2
        frontier = nxt


# matrix entries per batched eigvalsh in _count_transverse (512 KB of float64)
_PAIR_CHUNK_ENTRIES = 1 << 16


def _unrank3(r: int, d: int) -> tuple[int, int, int]:
    """The r-th triple of itertools.combinations(range(d), 3).

    Lexicographic rank r of (i, j, k) is colexicographic rank
    C(d, 3) - 1 - r of (d-1-k, d-1-j, d-1-i), whose combinadic digits
    c3 > c2 > c1 are each the largest c with C(c, size) within the rest.
    """
    rest = math.comb(d, 3) - 1 - r
    out = []
    top = d
    for size in (3, 2, 1):
        top = bisect_right(range(top), rest, key=lambda c: math.comb(c, size)) - 1
        rest -= math.comb(top, size)
        out.append(d - 1 - top)
    return tuple(out)


def _cluster(pts: list[BoundaryPoint], n: int,
             cluster_tol: float) -> list[BoundaryPoint]:
    """First-come greedy clustering under point_distance <= cluster_tol * scale.

    Each finite point is compared against one stack of the finite points kept
    so far; infinity is at distance 0 from infinity and inf from the rest.
    """
    kept: list[BoundaryPoint] = []
    finite = np.empty((len(pts), n, n))
    k = n_inf = 0
    for pt in pts:
        if pt.is_infinity:
            bound = cluster_tol
            near = (n_inf and 0.0 <= bound) or (k and np.inf <= bound)
        else:
            bound = cluster_tol * max(1.0, norm_inf(pt.value))
            dist = np.max(np.abs(finite[:k] - pt.value), axis=(1, 2))
            near = (n_inf and np.inf <= bound) or np.any(dist <= bound)
        if near:
            continue
        kept.append(pt)
        if pt.is_infinity:
            n_inf += 1
        else:
            finite[k] = pt.value
            k += 1
    return kept


def _count_transverse(pts: list[BoundaryPoint], tol: Tolerance) -> int:
    """Number of pairs i < j of the points with transverse(pts[i], pts[j], tol).

    Infinity is transverse to every finite point and not to infinity.  For
    finite points the test is that of symplectic.transverse: the smallest
    singular value of X_i - X_j exceeds tol.eq_tol * max(1, |X_i|, |X_j|).
    Precondition: every finite point is exactly symmetric (a sym_part
    output, as every sampled point is), so each difference is symmetric and
    its smallest singular value is its smallest |eigenvalue|, read off one
    batched eigvalsh per block of rows of the pair triangle.
    """
    finite = np.array([p.value for p in pts if not p.is_infinity])
    d = len(finite)
    count = (len(pts) - d) * d
    if d < 2:
        return count
    n = finite.shape[-1]
    scale = np.maximum(1.0, np.max(np.abs(finite), axis=(1, 2)))
    rows = max(1, _PAIR_CHUNK_ENTRIES // (d * n * n))
    for a in range(0, d - 1, rows):
        i, j = np.triu_indices(min(rows, d - a), a + 1, d)
        i += a
        smallest = np.min(np.abs(np.linalg.eigvalsh(finite[i] - finite[j])), axis=-1)
        bound = tol.eq_tol * np.maximum(scale[i], scale[j])
        count += int(np.count_nonzero(smallest > bound))
    return count


# at most this many triples of distinct points go into the Maslov histogram
_MAX_TRIPLES = 200
# points closer than this, relative to max(1, |point|), are identified
_CLUSTER_TOL = 1e-8


def limit_set_sample(rep: SurfaceRep, max_word_length: int = 4,
                     tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> LimitSample:
    """Attracting fixed points of words up to a length bound, with statistics.

    Requires every boundary generator image to have a transverse fixed-point
    pair (no unit-modulus spectrum); words whose image fails that condition
    are skipped and counted.  Points closer than 1e-8 * max(1, |point|) are
    identified before statistics, since distinct words routinely share an
    axis.

    Sampled triples are seeded: when the D distinct points have more than
    200 triples, rng = np.random.default_rng(seed) draws
    rng.choice(C(D, 3), size=200, replace=False) and each drawn index
    names the triple at that position of itertools.combinations(range(D), 3)
    (lexicographic order), found by unranking rather than by listing them;
    otherwise every triple is used in that order.
    """
    if max_word_length < 1:
        raise ValueError(f"max_word_length must be at least 1, got {max_word_length}")
    band = tol.unit_circle_band
    for j, c in enumerate(rep.c_imgs, start=1):
        if np.any(_unit_circle_masks(c.m, band)[1]):
            raise NotSHyperbolic(f"boundary generator C{j} has unit-modulus spectrum")
    gens = rep.generator_images()
    letters = list(gens)
    position = {l: i for i, l in enumerate(letters + [l + "-" for l in letters])}
    letter_stack = np.array([g.m for g in gens.values()] + [sp_inverse(g).m for g in gens.values()])

    points: list[tuple[str, BoundaryPoint]] = []
    skipped = 0
    findings: list[str] = []
    # one word length at a time: each level's stack is the previous level's
    # stack times the letter stack, in reduced_words order
    prev_index: dict[tuple[str, ...], int] = {}
    for _, level in itertools.groupby(reduced_words(letters, max_word_length), key=len):
        level = list(level)
        last = letter_stack[[position[w[-1]] for w in level]]
        mats = (prev[[prev_index[w[:-1]] for w in level]] @ last) if prev_index else last
        kept = np.flatnonzero(~np.any(_unit_circle_masks(mats, band)[1], axis=-1))
        found = [(" ".join(level[i]), pt) for i, pt in zip(kept, _attracting_points(mats[kept], tol))
                 if not isinstance(pt, NotSHyperbolic)]
        points += found
        skipped += len(level) - len(found)
        prev, prev_index = mats, {w: i for i, w in enumerate(level)}

    distinct = _cluster([pt for _, pt in points], rep.n, _CLUSTER_TOL)
    n_pairs = math.comb(len(distinct), 2)
    n_trans = _count_transverse(distinct, tol)
    frac = n_trans / n_pairs if n_pairs else 1.0
    if n_pairs and n_trans < n_pairs:
        findings.append(f"{n_pairs - n_trans} of {n_pairs} point pairs "
                        "not transverse")

    rng = np.random.default_rng(seed)
    n_triples = math.comb(len(distinct), 3)
    if n_triples > _MAX_TRIPLES:
        idx = rng.choice(n_triples, size=_MAX_TRIPLES, replace=False)
        triples = [_unrank3(int(r), len(distinct)) for r in idx]
    else:
        triples = itertools.combinations(range(len(distinct)), 3)
    hist: dict[int, int] = {}
    for i, j, k in triples:
        try:
            b = maslov(Triple(distinct[i], distinct[j], distinct[k]), tol)
        except MaxRepError as exc:  # degenerate triple
            findings.append(f"triple ({i},{j},{k}) failed: {exc}")
            continue
        hist[b] = hist.get(b, 0) + 1
    n = rep.n
    off = sum(v for b, v in hist.items() if abs(b) != n)
    if off:
        findings.append(f"{off} sampled triples with |index| != {n}")
    return LimitSample(
        points=tuple(points),
        distinct_points=tuple(distinct),
        transverse_fraction=frac,
        beta_histogram=hist,
        skipped_words=skipped,
        findings=tuple(findings),
    )
