"""The benchmark's workloads: fixed lists of user-level jobs.

A job is an in-process ``fyk.cli.main([...])`` call where a subcommand
exists and a public library call otherwise.  ``job_list`` builds a
workload's jobs from its seed; the seed draws only inputs that leave the
amount of work unchanged (job order, evaluation points, sweep offsets), never
problem sizes or the listed indices.  ``run_job`` executes one job inside a
pass process; it is the only code here that imports fyk.
"""
import contextlib
import io
import math
import random

WORKLOADS = {
    # Fourier-Bessel evaluation on large tensor grids (radial_profiles ->
    # jv/kv plus dense matmuls); odd and even n because nu = n/2 - 1 is a
    # half-integer only for odd n; gamma = 0.8 adds the singular weight.
    "direct-quadrature": [
        ("integrals_direct_7_0.25", "cli",
         ["integrals", "--n", "7", "--gamma", "0.25", "--method", "direct_2d", "--tol", "1e-4"]),
        ("integrals_direct_4_0.8", "cli",
         ["integrals", "--n", "4", "--gamma", "0.8", "--method", "direct_2d", "--tol", "1e-4"]),
    ],
    # Python CSR assembly, SuperLU and ARPACK; Fourier-Bessel evaluation only
    # supplies reference fields and sources.
    "fv-solvers": [
        ("solve_green_3_0.5", "cli", ["solve", "green", "--n", "3", "--gamma", "0.5"]),
        ("solve_extension_4_0.3", "cli", ["solve", "extension", "--n", "4", "--gamma", "0.3"]),
        ("solve_lambda1_4_0.3", "cli", ["solve", "lambda1", "--n", "4", "--gamma", "0.3"]),
        ("solve_linearized_4_0.3", "cli", ["solve", "linearized", "--n", "4", "--gamma", "0.3"]),
    ],
    # The Bessel layer one point at a time, plus scalar special-function
    # calls inside adaptive moment quadrature.
    "pointwise-checks": [
        ("pohozaev_4_0.3", "cli", ["pohozaev", "--n", "4", "--gamma", "0.3"]),
        ("fhat_sweep", "lib", None),
        ("neumann_4_0.3", "lib", None),
        ("jacobi_4_0.3", "lib", None),
        ("poisson_vs_fb_4_0.3", "lib", None),
        ("coeff_scan", "cli", ["coeff-scan"]),
        ("supnorms_3_0.5", "lib", None),
    ],
}

# Jobs that miss their acceptance tolerance in the recorded baseline, kept so
# the miss stays visible in ``tol_pass_frac`` rather than counted as a failure.
KNOWN_MISSES = {"integrals_direct_4_0.8"}

# Jobs whose output is not byte-identical across processes in the recorded
# baseline.  SciPy's eigsh draws its start vector from OS entropy, so lambda1
# changes in its last digits.  Such a job may differ from the first pass
# only in numbers that agree to ``checks.SAME_NUMBERS_REL``; each pass where
# it differs is reported as a known defect.
KNOWN_UNSTABLE = {"solve_lambda1_4_0.3"}

NEUMANN_FIXED_RADII = [3.0 * k / 12.0 for k in range(13)]


def _params(name, rng):
    """Seed-drawn inputs of a library job."""
    if name == "fhat_sweep":
        return {"n": list(range(4, 11)), "offset": rng.uniform(0.05, 0.95)}
    if name == "neumann_4_0.3":
        return {"radii": NEUMANN_FIXED_RADII + sorted(rng.uniform(0.0, 3.0) for _ in range(13))}
    if name == "jacobi_4_0.3":
        rho, phi = rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        return {"xbar": [rho * math.cos(phi), rho * math.sin(phi), 0.0, 0.0], "z": rng.uniform(0.2, 1.5)}
    if name == "poisson_vs_fb_4_0.3":
        return {"points": [[rng.uniform(0.2, 2.5), rng.uniform(0.2, 1.5)] for _ in range(3)]}
    if name == "supnorms_3_0.5":
        return {"K": 10.0, "r": rng.uniform(0.004, 0.009), "samples": 8}
    raise KeyError(name)


def job_list(workload, seed):
    """The workload's jobs for this seed, in seed-shuffled order."""
    rng = random.Random(seed)
    jobs = []
    for name, kind, argv in WORKLOADS[workload]:
        job = {"name": name, "kind": kind}
        if kind == "cli":
            job["argv"] = list(argv)
        else:
            job["params"] = _params(name, rng)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


# -- execution (inside a pass process) -------------------------------------


def run_job(job):
    """Run one job; returns a JSON-ready dict of what it produced."""
    if job["kind"] == "cli":
        import fyk.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fyk.cli.main(job["argv"])
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return {"value": _LIBRARY[job["name"]](**job["params"])}


def _fhat_sweep(n, offset):
    from fyk import moments, pohozaev
    from fyk.specfun import ProblemIndex

    rows = []
    for nn in n:
        for k in range(10):
            idx = ProblemIndex(nn, (k + offset) / 10.0)
            iset = moments.compute_integrals(idx, method="bessel_moments")
            fhat = pohozaev.assemble_Fhat(idx, moments.combined_integrals(idx, iset))
            rows.append([nn, idx.gamma, fhat, pohozaev.coefficient(idx).c_value])
    return rows


def _neumann(radii):
    import numpy as np

    from fyk import bubble
    from fyk.specfun import ProblemIndex

    idx = ProblemIndex(4, 0.3)
    p = bubble.BubbleParams()
    rows = []
    for rho in radii:
        xbar = np.zeros(idx.n)
        xbar[0] = rho
        rows.append([rho, bubble.neumann_trace(idx, p, xbar)])
    return rows


def _jacobi(xbar, z):
    import numpy as np

    from fyk import bubble
    from fyk.specfun import ProblemIndex

    idx = ProblemIndex(4, 0.3)
    x = bubble.HalfSpacePoint(np.asarray(xbar), z)
    fields = [bubble.jacobi_field(idx, k, x) for k in range(idx.n + 1)]
    # second route: analytic s-integral derivatives at the same point
    r = float(np.linalg.norm(xbar))
    f = bubble.radial_profiles(idx, np.array([r]), np.array([z]), ("W", "Wr_over_r", "Wz"))
    return {
        "fields": fields,
        "W": float(f["W"][0, 0]),
        "Wr_over_r": float(f["Wr_over_r"][0, 0]),
        "Wz": float(f["Wz"][0, 0]),
    }


def _poisson_vs_fb(points):
    import numpy as np

    from fyk import bubble
    from fyk.specfun import ProblemIndex

    idx = ProblemIndex(4, 0.3)
    p = bubble.BubbleParams()
    rows = []
    for r, z in points:
        x = bubble.HalfSpacePoint(np.array([r, 0.0, 0.0, 0.0]), z)
        rows.append([
            bubble.extension(idx, p, x, route="fourier_bessel"),
            bubble.extension(idx, p, x, route="poisson_kernel"),
        ])
    return rows


def _supnorms(K, r, samples):
    from fyk import geometry
    from fyk.specfun import ProblemIndex

    sup = geometry.characteristic_supnorms(ProblemIndex(3, 0.5), K, r, samples=samples)
    return {key: float(val) for key, val in sup.items()}


_LIBRARY = {
    "fhat_sweep": _fhat_sweep,
    "neumann_4_0.3": _neumann,
    "jacobi_4_0.3": _jacobi,
    "poisson_vs_fb_4_0.3": _poisson_vs_fb,
    "supnorms_3_0.5": _supnorms,
}
