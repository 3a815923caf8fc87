"""Find the `surface-build` pool chains whose build fails.

    python3 bench/screen_pool.py

Builds every chain of the pool that `worker.SurfaceBuild` draws from, one
process, one BLAS thread, and prints the index and error of each build that
raises.  Those indices are `SurfaceBuild.pool_failures`.  Takes about
2000 builds of 0.1-0.3 s of CPU each.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import worker  # noqa: E402

if __name__ == "__main__":
    for genus, m in worker.SurfaceBuild.kinds:
        failures = []
        for k in range(worker.SurfaceBuild.pool):
            graph = worker._surface_graph(worker.SurfaceBuild.chain(genus, m, k))
            try:
                worker.mx.build_from_graph(graph)
            except Exception as exc:    # report every failure, whatever its kind
                failures.append(k)
                print(f"({genus}, {m}) chain {k}: {type(exc).__name__}: {exc}", flush=True)
        print(f"({genus}, {m}): {len(failures)} of {worker.SurfaceBuild.pool} failed: {failures}",
              flush=True)
