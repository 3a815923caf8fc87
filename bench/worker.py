"""One benchmark process: set up a workload, run whole rounds of items, check them.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP limited to
one thread.  Every timing is process CPU time (``time.process_time``),
scaled to a fixed speed of a reference slice (see "machine speed" below).
Prints one JSON object as its last line.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed, require  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import maxrep as mx  # noqa: E402
from maxrep import cli  # noqa: E402

if not os.path.abspath(mx.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"maxrep was imported from {mx.__file__}, not from {SRC}")

# Every call into the library goes through a module attribute (mx.f), looked
# up at call time, so that the tracer's wrappers see it.


# ---------------------------------------------------------------------------
# workloads: each has rounds of items, a warm-up item, a run step and a check


def _surface_graph(graph):
    return mx.GluingGraph(
        tuple(mx.PantsNode(name, mx.PantsParams(*x)) for name, x in graph["nodes"]),
        tuple(mx.GraphEdge(up, lo, tw) for up, lo, tw in graph["edges"]),
        tuple(mx.GraphBoundary(port, label) for port, label in graph["boundaries"]))


class PantsCoords:
    """Forward map, Toledo number, conjugation, inverse map, equivalence."""

    # Host bursts of 50-100 ms slow a run of consecutive items; a window of
    # the two measurements on either side of an item follows them.
    reference = ("small", 1, 2)     # kind, slices per measurement, window

    def round(self, rng):
        return [self.make(n, rng) for n in (1, 2, 3, 4)]

    def warmup(self, rng):
        return self.make(4, rng)

    def make(self, n, rng):
        return {"n": n, "x": inputs.pants_params(n, rng), "h": inputs.symplectic(n, rng)}

    def run(self, item):
        n = item["n"]
        p = mx.PantsParams(*item["x"])
        rep = mx.build_maximal(p)
        triple = mx.Triple(mx.zero_point(n), mx.identity_point(n), mx.INFINITY)
        t = mx.toledo(rep, triple)
        h = mx.SpMat(item["h"])
        h_inv = mx.sp_inverse(h)
        conj = mx.PantsRep(*(h @ c @ h_inv for c in rep.generators()))
        q, _ = mx.recover_params(conj)
        eq = mx.params_equivalent(p, q)
        return rep, t, q, eq

    def check(self, item, out):
        rep, t, q, eq = out
        n = item["n"]
        gens = {f"C{j}": c.m for j, c in enumerate(rep.generators(), start=1)}
        rel = checks.relation_defect(0, gens)
        require(rel <= 1e-9, f"pants relation defect {rel:.3e}")
        require(t == n, f"Toledo number {t}, expected {n}")
        require(eq.equivalent and not eq.inconclusive and eq.witness is not None,
                "recovered parameters not found equivalent")
        w = eq.witness
        orth = float(np.max(np.abs(w.T @ w - np.eye(n))))
        require(orth <= 1e-9, f"witness not orthogonal ({orth:.3e})")
        conj = max(float(np.max(np.abs(w @ x @ w.T - y))) / max(1.0, float(np.max(np.abs(y))))
                   for x, y in zip(item["x"], q.matrices()))
        require(conj <= 1e-7, f"witness misses the recovered parameters ({conj:.3e})")
        return max(rel, orth, conj)


class SurfaceBuild:
    """`maxrep build --json --out` on random n = 12 chains of type (0, 4) and (1, 2)."""

    reference = ("dense", 1, 8)     # the SVD of a 576 x 576 operator dominates

    n = 12
    kinds = ((0, 4), (1, 2))
    pool = 1000     # chains of each kind; the seed draws a run's chains from them
    # Pool chains whose build stops with "SVD did not converge" in the gluing
    # step, as bench/screen_pool.py finds them.  Which random chains do that
    # is luck, so they are left out instead of counted in `failed`.
    pool_failures = {(0, 4): frozenset({648}), (1, 2): frozenset()}

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    @classmethod
    def chain(cls, genus, m, k):
        return inputs.random_chain(genus, m, cls.n, np.random.default_rng([cls.n, genus, m, k]))

    def round(self, rng):
        return [self.make(genus, m, rng) for genus, m in self.kinds]

    def warmup(self, rng):
        return self.make(0, 4, rng)

    def make(self, genus, m, rng):
        k = int(rng.integers(self.pool))
        while k in self.pool_failures[genus, m]:
            k = int(rng.integers(self.pool))
        graph = self.chain(genus, m, k)
        self.count += 1
        path = os.path.join(self.workdir, f"graph{self.count}.txt")
        with open(path, "w") as fh:
            fh.write(inputs.graph_text(graph))
        return {"graph": graph, "file": path, "out": path[:-4] + ".rep"}

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["build", item["file"], "--json", "--out", item["out"]])
        return code, buf.getvalue()

    def check(self, item, out):
        code, report = out
        require(code == 0, f"build exited with code {code}")
        require(json.loads(report).get("status") == "ok", "JSON report does not say ok")
        with open(item["out"]) as fh:
            n, genus, m, gens = checks.parse_rep_text(fh.read())
        graph = item["graph"]
        require((n, genus, m) == (graph["n"], graph["genus"], graph["m"]),
                "rep file declares the wrong surface")
        sym = max(checks.symplectic_defect(g) for g in gens.values())
        require(sym <= 1e-6, f"generator not symplectic ({sym:.3e})")
        rel = checks.relation_defect(genus, gens)
        require(rel <= checks.RELATION_TOL, f"relation defect {rel:.3e}")
        spec = max(checks.spectrum_defect(gens[f"C{j}"], length) for j, length
                   in enumerate(inputs.boundary_glue_lengths(graph), start=1))
        require(spec <= 1e-6, f"boundary spectrum off by {spec:.3e}")
        for path in (item["file"], item["out"]):
            os.remove(path)
        return max(sym, rel, spec)


STANDARD_SIGNS = {8: (1, -1) * 3 + (1,), 10: (1, -1) * 4 + (1,), 12: (1, -1) * 5 + (1,)}


class Components:
    """Build, signature, deformation to the standard form, build of the last snapshot."""

    reference = ("small", 9, 6)

    steps = 100

    def round(self, rng):
        # Item costs fall in three groups: the (0, 4) and (1, 2) chains, the
        # (0, 5) chains, and the dearer standard chains.  Nearly as many items
        # below the (0, 5) group as above it put the median inside that group
        # and the tail inside the standard chains, not at the edge of a gap.
        # A round of 29 items takes about 11.5 s at reference speed, so a 15 s
        # run is two rounds, and the item count and the tail's rank hold.
        kinds = ([(genus, m, n) for _ in range(3) for n in (2, 3) for genus, m in ((0, 4), (1, 2))]
                 + [(0, 5, n) for _ in range(4) for n in (2, 3)])
        items = [{"graph": inputs.random_chain(genus, m, n, rng), "known_fault": False}
                 for genus, m, n in kinds]
        # the relation gate accepts these with defects far above the bound
        items += [{"graph": inputs.standard_chain(m, 2, signs), "known_fault": True}
                  for _ in range(3) for m, signs in STANDARD_SIGNS.items()]
        return items

    def warmup(self, rng):
        return {"graph": inputs.random_chain(0, 4, 2, rng), "known_fault": False}

    def run(self, item):
        graph = _surface_graph(item["graph"])
        rep = mx.build_from_graph(graph)
        sig = mx.component_signature(rep)
        path = mx.deform_to_standard(graph, steps=self.steps)
        last = mx.build_from_graph(path.snapshots[-1])
        return rep, sig, path, last, mx.component_signature(last)

    def check(self, item, out):
        rep, sig, path, last, last_sig = out
        graph = item["graph"]
        n = graph["n"]
        want = inputs.expected_signature(graph)
        require(sig == want, f"signature {sig}, graph's determinant signs give {want}")
        require(path.signature == want and last_sig == want, "signature moved")
        signs0 = _det_signs([x for _, x in graph["nodes"]], [e[2] for e in graph["edges"]])
        require(len(path.snapshots) == self.steps + 1, "wrong number of snapshots")
        for snap in path.snapshots:
            for nd in snap.nodes:
                x1, x2, x3 = nd.params.matrices()
                checks.spd_by_cholesky(x3 @ np.linalg.inv(x2.T) @ x1)
                rho = max(inputs.spectral_radius(x) for x in (x1, x2, x3))
                require(rho <= 1.0, f"spectral radius {rho:.6f} above 1")
            require(_det_signs([nd.params.matrices() for nd in snap.nodes],
                               [e.twist for e in snap.edges]) == signs0,
                    "a determinant sign changed")
        # standard lengths are diag(+-1/2, 1/2, ...) up to an overall sign, which
        # the glue length -X2 of port 2 passes on; standard twists diag(+-1, 1, ...)
        end = path.snapshots[-1]
        std = max([_std_distance(x, 0.5, True) for nd in end.nodes
                   for x in nd.params.matrices()]
                  + [_std_distance(e.twist, 1.0, False) for e in end.edges])
        require(std <= 1e-8, f"last snapshot is {std:.3e} from the standard form")
        rel = 0.0
        for built in (rep, last):
            gens = {k: g.m for k, g in built.generator_images().items()}
            rel = max(rel, checks.relation_defect(built.genus, gens))
            require(rel <= checks.RELATION_TOL, f"relation defect {rel:.3e}")
        return max(rel, std)


def _det_signs(node_lengths, twists):
    sign = lambda x: int(np.sign(np.linalg.det(x)))
    return (tuple(tuple(sign(x) for x in lengths) for lengths in node_lengths)
            + tuple(sign(t) for t in twists))


def _std_distance(x, value, either_sign):
    """Distance from x to the nearest eps * diag(s * value, value, ..., value)."""
    d = np.full(x.shape[0], value)
    best = np.inf
    for eps in ((1.0, -1.0) if either_sign else (1.0,)):
        for s in (1.0, -1.0):
            d[0] = s * value
            best = min(best, float(np.max(np.abs(x - eps * np.diag(d)))))
    return best


class LimitSample:
    """Limit-set sample of a pants representation, words up to length 4."""

    # An item lasts seconds and the speed moves within it, so a measurement
    # is the median of 81 slices, and an item is scaled by the median of
    # three measurements: nearly the whole run's.
    reference = ("small", 81, 3)

    max_len = 4
    words = sum(6 * 5 ** (k - 1) for k in range(1, max_len + 1))   # 936

    def round(self, rng):
        return [{"n": n, "x": inputs.pants_params(n, rng), "max_len": self.max_len}
                for n in (1, 2, 3)]

    def warmup(self, rng):
        # words up to length 2 touch the same code at a fraction of the cost
        return {"n": 1, "x": inputs.pants_params(1, rng), "max_len": 2}

    def run(self, item):
        rep = mx.pants_surface_rep(mx.PantsParams(*item["x"]))
        return rep, mx.limit_set_sample(rep, max_word_length=item["max_len"], seed=0)

    def check(self, item, out):
        rep, sample = out
        n = item["n"]
        if item["max_len"] == self.max_len:
            require(len(sample.points) + sample.skipped_words == self.words,
                    f"{len(sample.points)} sampled + {sample.skipped_words} skipped words")
        gens = {}
        for name, g in rep.generator_images().items():
            gens[name] = g.m
            gens[name + "-"] = np.linalg.inv(g.m)
        worst = 0.0
        for word, pt in sample.points:
            g = np.eye(2 * n)
            for letter in word.split():
                g = g @ gens[letter]
            fixed, contraction = checks.attracting_defect(g, pt.value)
            require(fixed <= 1e-6, f"word {word!r}: point moved by {fixed:.3e}")
            require(contraction < 1.0, f"word {word!r}: point is not attracting")
            worst = max(worst, fixed)
        require(sample.transverse_fraction == 1.0,
                f"transverse fraction {sample.transverse_fraction}")
        require(set(sample.beta_histogram) <= {n, -n},
                f"Maslov indices {sorted(sample.beta_histogram)}")
        d = len(sample.distinct_points)
        require(sum(sample.beta_histogram.values()) == min(200, math.comb(d, 3)),
                "some sampled triples got no index")
        return worst


# ---------------------------------------------------------------------------
# machine speed
#
# The host's speed moves by a fifth to two fifths within a minute, and by half
# in its fast spells, on the CPU clock too.  So a fixed reference slice of the
# kind of work a workload does is timed after every item: small-matrix numpy
# calls for most workloads, a dense SVD for the n = 12 builds.  A measurement
# is the median of a workload's number of slices, over the slice's nominal
# time: the slowness.  Each item's CPU time is divided by the median slowness
# of the workload's window of measurements centred on it.  Set-up time,
# mostly interpreter and import work, is divided by a small-slice slowness
# taken right after set-up.  The slices run no library code, so a change to
# the library moves the scaled times as it moves the raw ones.

REF_NOMINAL_MS = {"small": 1.2, "dense": 15.0}   # slice CPU time at the reference speed

_REF_RNG = np.random.default_rng(0)
_REF_SMALL = [_REF_RNG.normal(size=(k, k)) + k * np.eye(k) for k in (2, 4, 6, 8)]
_REF_DENSE = _REF_RNG.normal(size=(256, 256))


def reference_slice(kind):
    if kind == "dense":
        return float(np.linalg.svd(_REF_DENSE)[1][0])
    acc = 0.0
    for _ in range(4):
        for m in _REF_SMALL:
            a = m @ m.T
            b = np.linalg.solve(a, m)
            acc += float(np.max(np.abs(np.linalg.eigvals(b)))) + float(np.linalg.det(a))
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return acc


def slowness(kind, slices):
    """Median CPU time of `slices` reference slices of `kind`, taken now, over the nominal time."""
    times = []
    for _ in range(slices):
        t0 = time.process_time()
        reference_slice(kind)
        times.append(1e3 * (time.process_time() - t0))
    return float(np.median(times)) / REF_NOMINAL_MS[kind]


def scaled_times(times, refs, window):
    """Item i, which lies between refs[i] and refs[i + 1], over the median of
    the `window` measurements centred on it."""
    window = min(window, len(refs))
    out = []
    for i, t in enumerate(times):
        lo = max(0, min(i + 1 - window // 2, len(refs) - window))
        out.append(t / float(np.median(refs[lo:lo + window])))
    return out


# ---------------------------------------------------------------------------
# the measured run


def tail(times):
    """(percentile, value): the highest percentile with at least ten items beyond it.

    Runs with fewer than forty items have no tail; their slowest item stands in.
    """
    s = sorted(times)
    if len(s) < 40:
        return 100.0, s[-1]
    k = len(s) - 11
    return 100.0 * (k + 1) / len(s), s[k]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.outdir) as workdir:
        workload = {
            "pants-coords": PantsCoords,
            "surface-build": lambda: SurfaceBuild(workdir),
            "components": Components,
            "limit-sample": LimitSample,
        }[args.workload]()
        rounds = lambda r: np.random.default_rng([args.seed, r])
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        batch = workload.round(rounds(1))
        warm = workload.warmup(rounds(0))
        workload.check(warm, workload.run(warm))
        setup_cpu_s = time.process_time()
        reference_slice("small")    # warm-up, untimed
        setup_s = setup_cpu_s / slowness("small", 81)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
            return

        walls, defects, raw_times, refs = [], [], [], []
        failed = wrong = 0
        ratios = []     # distinct points per sampled word, limit-sample only
        kind, slices, window = workload.reference
        reference_slice(kind)   # warm-up, untimed
        refs.append(slowness(kind, slices))
        # The phase lasts --seconds at reference speed: CPU time outside the
        # reference measurements, scaled like item times, so that the number
        # of rounds does not move with the host's speed.
        phase_s, mark = 0.0, time.process_time()

        r = 1
        while True:
            for item in batch:
                if tracer:
                    tracer.current_item = len(raw_times)
                w0, t0 = time.perf_counter(), time.process_time()
                try:
                    out = workload.run(item)
                except Exception as exc:    # a refusal or a crash fails this item only
                    out = exc
                t1, w1 = time.process_time(), time.perf_counter()
                if tracer:
                    tracer.current_item = -1
                raw_times.append(t1 - t0)
                walls.append(w1 - w0)
                refs.append(slowness(kind, slices))     # right after the item
                phase_s += (t1 - mark) / (0.5 * (refs[-2] + refs[-1]))
                mark = time.process_time()
                try:
                    if isinstance(out, Exception):
                        raise CheckFailed("".join(traceback.format_exception(out)))
                    defects.append(workload.check(item, out))
                    if isinstance(workload, LimitSample):
                        sample = out[1]
                        ratios.append(len(sample.distinct_points) / len(sample.points))
                except CheckFailed as exc:
                    failed += 1
                    if not item.get("known_fault"):
                        wrong += 1
                        print(f"check failed: {exc}", file=sys.stderr)
            phase_s += (time.process_time() - mark) / refs[-1]
            mark = time.process_time()
            if phase_s >= args.seconds:
                break
            r += 1
            batch = workload.round(rounds(r))

        times = scaled_times(raw_times, refs, window)
        ru = resource.getrusage(resource.RUSAGE_SELF)
        pct, tail_s = tail(times)
        digits = [min(16.0, -math.log10(max(d, 1e-16))) for d in defects]
        result = {
            "correct": wrong == 0,
            "attempted": len(times),
            "failed": failed,
            "rounds": r,
            "tail_percentile": pct,
            "wall_ms_p50": 1e3 * float(np.median(walls)),
            "raw_ms_p50": 1e3 * float(np.median(raw_times)),
            "raw_items_per_s": len(raw_times) / sum(raw_times),
            "slowness": refs,
            "phase_s": phase_s,
            "setup_cpu_s": setup_cpu_s,
            "metrics": {
                "items_per_s": len(times) / sum(times),
                "item_ms_p50": 1e3 * float(np.median(times)),
                "item_ms_tail": 1e3 * tail_s,
                "setup_s": setup_s,
                "peak_rss_mb": ru.ru_maxrss / 1024.0,
                "accuracy_digits": float(np.median(digits)) if digits else 0.0,
            },
        }
        if tracer:
            values = tracer.metrics(len(times))
            values["limits.distinct_per_word"] = float(np.mean(ratios)) if ratios else 0.0
            units = dict(spans.metric_names())
            result["layers"] = {name: {"value": v, "unit": units[name]}
                                for name, v in values.items()}
            tracer.dump(os.path.join(args.outdir, f"trace-{args.workload}-{args.seed}.npz"))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
