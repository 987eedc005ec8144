"""Run one benchmark workload of dmt and print its metrics.

    python3 perfbench/run.py --workload short --seed 1 --seconds 32 --trace 0

Run from the root of a dmt source tree; the program under test is the
``src/dmt`` package of that tree. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it records the environment. Working
files go to ``.perfbench/`` in the tree and are removed at exit, except
the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1     # one caller on one core; the two cores' speeds drift apart


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args, threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dmt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dmt" / "__init__.py").is_file():
        print(f"error: no dmt source tree at {ROOT / 'src' / 'dmt'}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dmt
    if Path(dmt.__file__).resolve().parent != ROOT / "src" / "dmt":
        print(f"error: imported dmt from {dmt.__file__}", file=sys.stderr)
        return 2
    import workload as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    # a terminated run still removes its working files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = wl.run(wl.WORKLOADS[args.workload], args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": environment(args, threads)}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    t0 = perf_counter()
    code = main()
    print(f"elapsed {perf_counter() - t0:.1f}s", file=sys.stderr)
    sys.exit(code)
