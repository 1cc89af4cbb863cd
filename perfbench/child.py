"""One benchmark pass in a fresh interpreter.

    python3 -s perfbench/child.py SPEC.json RESULT.json

Times ``import fyk.cli`` (the set-up a CLI user pays), then, unless the spec
asks for the set-up sample only, runs the spec's job list once, optionally
under the tracer, and writes what each job produced to RESULT.json.
"""
import contextlib
import ctypes
import json
import os
import resource
import sys
import time
import traceback


def loaded_blas_threads():
    """Thread count reported by each OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import fyk.cli

    setup_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(fyk.cli.__file__).startswith(src + os.sep):
        sys.exit("fyk was imported from %s, not from %s" % (fyk.cli.__file__, src))
    result = {"setup_s": setup_s}

    if spec.get("jobs") is not None:
        import numpy
        import scipy

        import jobs
        import tracing

        tracer = tracing.Tracer() if spec["trace"] else None
        records = []
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            for job in spec["jobs"]:
                t = time.perf_counter()
                with tracer.job_span(job["name"]) if tracer else contextlib.nullcontext():
                    try:
                        record = jobs.run_job(job)
                    except Exception:  # a failing job is reported, the pass goes on
                        record = {"error": traceback.format_exc()}
                record.update(name=job["name"], seconds=time.perf_counter() - t)
                records.append(record)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0

        from fyk import bubble

        info = bubble._s_rule.cache_info() if hasattr(bubble._s_rule, "cache_info") else None
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            blas_threads=loaded_blas_threads(),
            versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
            s_rule=[info.hits, info.misses] if info else [0, 0],
            jobs=records,
        )
        if tracer:
            result["layers"] = tracer.layer_metrics()
            names, start, end, parent, job = tracer.arrays()
            numpy.savez(
                spec["spans"],
                name=names, start=start, end=end, parent=parent, job=job,
                labels=numpy.array(tracer.span_names()), jobs=numpy.array(tracer.job_names),
            )

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
