"""One pass of a workload in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the checkout's ``src`` directory, the CLI
arguments, the output directory, the mode (``setup``, ``plain`` or
``traced``) and the monotonic time at which run.py started this process.
The worker sets up (imports, reference series, one warm-up LAPACK call),
then calls ``heatbem.cli.main`` in-process, then gates the outputs outside
the timed region, and writes its measurements to the spec's result path.
"""

from __future__ import annotations

import ctypes
import io
import json
import resource
import sys
import time
import warnings
from contextlib import nullcontext, redirect_stdout
from pathlib import Path


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process loaded, by library file."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _libraries(numpy, scipy) -> dict:
    def blas(cfg):
        dep = cfg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])

    # --- set-up: everything a user pays before the command starts working
    import numpy
    import scipy
    import scipy.special  # noqa: F401  (heatbem's erfc)

    import heatbem
    import heatbem.cli
    from heatbem.reference import example1_series, example2_series

    example1_series()
    example2_series()
    numpy.linalg.solve(numpy.eye(256) + 1.0, numpy.ones(256))
    setup_s = time.monotonic() - spec["t0"]

    result = {
        "setup_s": setup_s,
        "heatbem_file": heatbem.__file__,
        "libraries": _libraries(numpy, scipy),
    }
    if spec["mode"] != "setup":
        result.update(_run(spec))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def _run(spec) -> dict:
    import heatbem.cli
    import gate
    from tracing import Tracer

    tracer = Tracer(spec["run_id"]) if spec["mode"] == "traced" else None
    out = Path(spec["out"])
    stdout = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout):
            warnings.simplefilter("always")
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            with tracer.span("cli.main") if tracer is not None else nullcontext():
                exit_code = heatbem.cli.main(spec["argv"] + ["--out", str(out)])
            wall_s = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- outside the timed region
    ops, flux_error = gate.check(
        spec["workload"], out, exit_code, stdout.getvalue(), spec["points"]
    )
    res = {
        "exit_code": exit_code,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "user_s": ru1.ru_utime - ru0.ru_utime,
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "flux_l2_error": flux_error,
        "ops": ops,
        "warnings": sorted({str(w.message).split(" (")[0] for w in caught}),
    }
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        res["layers"] = tracer.layer_metrics()
        res["self_sum_s"] = tracer.self_time_sum()
    return res


if __name__ == "__main__":
    sys.exit(main())
