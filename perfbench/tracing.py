"""Span tracing around fyk's layer boundaries, installed from outside fyk.

A ``Tracer`` replaces the public entry points of each fyk module (and the
SciPy kernels fyk calls) with thin wrappers that record one span per call:
a name, start and end times, the span that was open when it started, and
the job it belongs to.  Spans stay in memory until the pass ends.  Counters
(points evaluated, unknowns solved, ...) are recorded at the same wrappers.

``Tracer.installed()`` patches every fyk module attribute that refers to a
wrapped object, so ``from .specfun import profile_phi`` copies are covered
too, and restores each original on exit.  Nothing under ``src/`` changes.

A span's layer is its name up to the first dot.  The SciPy kernels get
layers of their own (``special``, ``quadpack``, ``sparse``, ``ode``), so the
self time of the fyk layer that calls them excludes them.
"""
import contextlib
import functools
import math
import time

import numpy as np


def _size(x):
    return int(np.size(x))


class _Proxy:
    """Stands in for a module (``scipy.special``, ``scipy.integrate``) inside
    one fyk module: wrapped attributes are served first, the rest fall
    through to the real module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names = []          # span name id per span
        self.start = []
        self.end = []
        self.parent = []         # index of the enclosing span, -1 at top level
        self.job = []            # job id per span
        self.counts = {}
        self._name_ids = {}
        self._stack = []
        self._job = -1
        self.job_names = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._name_ids)
        k = len(self.start)
        self.names.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(math.nan)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def _close(self, k):
        self.end[k] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        k = self._open(name)
        try:
            yield
        finally:
            self._close(k)

    @contextlib.contextmanager
    def job_span(self, job_name):
        """Top-level span of one benchmark job; its spans share the job id."""
        self._job = len(self.job_names)
        self.job_names.append(job_name)
        try:
            with self.span("bench.job"):
                yield
        finally:
            self._job = -1

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording span ``name`` around ``fn``.  ``before(args,
        kwargs)`` and ``after(args, kwargs, result)`` update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            k = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(k)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch fyk's layer entry points for the duration of the block."""
        patches = []  # (owner, attribute, original)
        try:
            for owner, attr, replacement in self._replacements():
                patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _replacements(self):
        import scipy.integrate
        import scipy.special

        import fyk
        from fyk import _quad, bubble, cli, geometry, moments, pohozaev, solver, specfun

        modules = [fyk, specfun, _quad, bubble, moments, pohozaev, solver, geometry, cli]
        out = []

        def everywhere(original, replacement):
            # every module-level name bound to ``original`` (from-imports too)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        out.append((mod, attr, replacement))

        def entry_points(mod, layer, names, before=None):
            for name in names:
                fn = getattr(mod, name)
                everywhere(fn, self.wrap(layer + "." + name, fn, before=before))

        def points_of(key):
            def before(args, kwargs):
                self.count(key + "_calls")
                self.count(key + "_points", _size(args[1]))

            return before

        # scipy.special kernels, wherever fyk calls them
        special_proxy = _Proxy(
            scipy.special,
            jv=self.wrap("special.jv", scipy.special.jv, before=points_of("specfun.jv")),
            kv=self.wrap("special.kv", scipy.special.kv, before=points_of("specfun.kv")),
        )
        for mod in (specfun, bubble, pohozaev):
            if getattr(mod, "special", None) is scipy.special:
                out.append((mod, "special", special_proxy))

        def spec_points(args, kwargs):
            self.count("specfun.points", _size(args[1]))

        entry_points(
            specfun, "specfun",
            ("profile_phi", "profile_phi_prime", "profile_what", "profile_what_prime", "bessel_k"),
            before=spec_points,
        )
        entry_points(specfun, "specfun", ("gamma_fn", "constants", "sphere_area"))

        def quad_nodes(args, kwargs, result):
            self.count("quad.nodes", _size(result[0]))

        everywhere(_quad.gauss_panels, self.wrap("quad.gauss_panels", _quad.gauss_panels, after=quad_nodes))
        everywhere(_quad.graded_edges, self.wrap("quad.graded_edges", _quad.graded_edges))

        def grid(args, kwargs):
            pts = _size(args[1]) * _size(args[2])  # radial_profiles(idx, r, z, ...)
            self.count("bubble.calls")
            self.count("bubble.points", pts)
            if pts == 1:
                self.count("bubble.point_calls")

        everywhere(bubble.radial_profiles, self.wrap("bubble.radial_profiles", bubble.radial_profiles, before=grid))
        entry_points(bubble, "bubble", (
            "extension", "extension_gamma_half", "neumann_trace", "jacobi_field",
            "jacobi_field_radial", "trace_bubble", "poisson_constant",
        ))
        entry_points(moments, "moments", (
            "compute_moments", "compute_integrals", "combined_integrals",
            "combined_integrals_direct", "closed_form_ratios", "combined_ratios",
            "verify_recurrences",
        ))
        out.append((moments, "integrate", _Proxy(scipy.integrate, quad=self._traced_quad(scipy.integrate.quad))))

        entry_points(pohozaev, "pohozaev", (
            "pohozaev_P", "pohozaev_Pprime", "coefficient", "coefficient_numerator",
            "dimension_gate", "assemble_Fhat", "weighted_halfsphere_area",
            "limit_value_oracle", "local_sign_bound",
        ))

        def field_points(args, kwargs):
            self.count("pohozaev.field_calls")
            self.count("pohozaev.field_points", int(np.broadcast(args[1], args[2]).size))

        cls = pohozaev.BubbleExtensionField
        for name in ("value", "grad"):
            fn = vars(cls)[name]
            out.append((cls, name, self.wrap("pohozaev.field", fn, before=field_points)))

        entry_points(solver, "solver", (
            "solve_extension", "rayleigh_lambda1", "green_asymptotics",
            "solve_linearized", "apply_operator", "barrier_values",
        ))
        out.append((solver, "spsolve", self._traced_spsolve(solver.spsolve)))

        def eigsh_done(args, kwargs, result):
            self.count("solver.eigsh_calls")

        out.append((solver, "eigsh", self.wrap("sparse.eigsh", solver.eigsh, after=eigsh_done)))

        entry_points(geometry, "geometry", (
            "characteristic_supnorms", "eikonal_characteristics", "normalized_jet",
            "gauss_codazzi_scalar", "sqrt_det_expansion", "inverse_metric_expansion",
        ))

        def ivp_done(args, kwargs, sol):
            self.count("geometry.ivp_calls")
            self.count("geometry.rhs_evals", int(sol.nfev))

        out.append((geometry, "solve_ivp", self.wrap("ode.solve_ivp", geometry.solve_ivp, after=ivp_done)))

        everywhere(cli.main, self.wrap("cli.main", cli.main))
        return out

    def _traced_quad(self, quad):
        def counted(f):
            def integrand(*a):
                self.count("moments.integrand_evals")
                return f(*a)

            return integrand

        def before(args, kwargs):
            self.count("moments.quad_calls")

        traced = self.wrap("quadpack.quad", quad, before=before)

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            return traced(counted(func), *args, **kwargs)

        return wrapper

    def _traced_spsolve(self, spsolve):
        def after(args, kwargs, x):
            A, b = args[0], np.asarray(args[1])
            self.count("solver.spsolve_calls")
            self.count("solver.unknowns", int(A.shape[0]))
            self.count("solver.nnz", int(A.nnz))
            bnorm = float(np.linalg.norm(b))
            res = float(np.linalg.norm(A @ x - b)) / (bnorm if bnorm > 0 else 1.0)
            self.counts["solver.residual_max"] = max(self.counts.get("solver.residual_max", 0.0), res)

        return self.wrap("sparse.spsolve", spsolve, after=after)

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays (name ids, start, end, parent, job)."""
        return (
            np.asarray(self.names, dtype=np.int32),
            np.asarray(self.start, dtype=float),
            np.asarray(self.end, dtype=float),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.job, dtype=np.int32),
        )

    def span_names(self):
        out = [None] * len(self._name_ids)
        for name, nid in self._name_ids.items():
            out[nid] = name
        return out

    def layer_metrics(self):
        """Per-layer counts and times, as flat ``layer.metric`` keys."""
        names, start, end, parent, job = self.arrays()
        labels = self.span_names()
        own = self_times(start, end, parent)
        dur = end - start
        label_of = np.array(labels, dtype=object)[names] if len(names) else np.array([], dtype=object)
        prefix = np.array([lab.split(".", 1)[0] for lab in label_of], dtype=object)

        def total(values, mask):
            return float(values[mask].sum()) if mask.any() else 0.0

        m = dict(self.counts)
        for layer in ("specfun", "bubble", "moments", "pohozaev", "solver", "geometry"):
            m[layer + ".self_s"] = total(own, prefix == layer)
        for layer in ("specfun", "moments", "pohozaev", "solver", "geometry"):
            m[layer + ".calls"] = int((prefix == layer).sum())
        m["specfun.jv_s"] = total(dur, label_of == "special.jv")
        m["specfun.kv_s"] = total(dur, label_of == "special.kv")
        m["moments.quad_s"] = total(dur, label_of == "quadpack.quad")
        m["solver.spsolve_s"] = total(dur, label_of == "sparse.spsolve")
        m["solver.eigsh_s"] = total(dur, label_of == "sparse.eigsh")
        m["quad.calls"] = int((prefix == "quad").sum())
        m["quad.s"] = total(dur, prefix == "quad")
        m["cli.self_s"] = total(own, label_of == "cli.main")
        jobs = label_of == "bench.job"
        for k in np.flatnonzero(jobs):
            key = "cli.job_s." + self.job_names[job[k]]
            m[key] = m.get(key, 0.0) + float(dur[k])
        return m


def self_times(start, end, parent):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    order = kids[np.lexsort((start[kids], parent[kids]))]
    k = 0
    while k < order.size:
        p = parent[order[k]]
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        while k < order.size and parent[order[k]] == p:
            c = order[k]
            a, b = max(start[c], lo), min(end[c], hi)
            k += 1
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        own[p] -= covered
    return own
