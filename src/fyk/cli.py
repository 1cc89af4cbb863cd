"""Command-line reports over the library: closed-form constants, integral
ratio tables, the coefficient sweep, identity checks, and solver runs.

Exit codes: 0 all residuals within tolerance, 1 usage error, 2 numeric
failure, 3 tolerance breach.  Output is deterministic: fixed quadrature
rules, no randomness, and stable float formatting, so rerunning a command
produces byte-identical files.
"""
import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from . import bubble, moments, pohozaev, solver
from .errors import DomainError, NumericError
from .specfun import ProblemIndex, constants

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_TOLERANCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    tol: float = 1e-6  # integrals and pohozaev only
    resolution: int | None = None  # solve green, lambda1 and linearized only
    out: str = None
    fmt: str = "csv"

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise UsageError("tolerance must be finite and positive")
        if self.resolution is not None and self.resolution < 8:
            raise UsageError("resolution must be at least 8 per axis")
        if self.fmt not in ("csv", "json"):
            raise UsageError("format must be csv or json")
        if self.fmt == "json" and not self.out:
            raise UsageError("format json needs an output directory (--out)")


_CONFIG_KEYS = ("tol", "out", "format")


def _load_config(path):
    """Flat key=value file; blank lines and #-comments ignored."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError("bad config line: %r" % line)
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(
                    "unknown config key %r (known: %s)" % (key, ", ".join(_CONFIG_KEYS))
                )
            values[key] = val.strip()
    return values


def _build_config(args):
    file_vals = _load_config(args.config) if getattr(args, "config", None) else {}
    tol = getattr(args, "tol", None)
    try:
        tol = tol if tol is not None else float(file_vals.get("tol", 1e-6))
    except ValueError as exc:
        raise UsageError("bad config value: %s" % exc) from exc
    res = getattr(args, "resolution", None)
    out = args.out if args.out is not None else file_vals.get("out")
    fmt = args.format if args.format is not None else file_vals.get("format", "csv")
    return RunConfig(tol=tol, resolution=res, out=out, fmt=fmt)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_BOOL_TEXT = ("false", "true")


def _rows_text(rows):
    """The table lines of ``rows``, each ``",".join(map(_fmt, row))``, by one
    % operation per row: a column of floats alone takes %.17g, any other
    column %s, after bools become true/false and the values of a column
    that mixes floats or bools with other types go through ``_fmt``."""
    cols = list(zip(*rows))
    specs = []
    for j, col in enumerate(cols):
        types = set(map(type, col))
        if len(types) == 1 and issubclass(*types, float):
            specs.append("%.17g")
            continue
        specs.append("%s")
        if types == {bool}:
            cols[j] = map(_BOOL_TEXT.__getitem__, col)
        elif any(issubclass(t, (bool, float)) for t in types):
            cols[j] = map(_fmt, col)
    return list(map(",".join(specs).__mod__, zip(*cols)))


def _emit(cfg, name, header, rows, notes=()):
    """Write/print one table. Rows are sequences matching the header."""
    lines = [",".join(header)] + _rows_text(rows)
    text = "\n".join(lines) + "\n"
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        if cfg.fmt == "csv":
            path = os.path.join(cfg.out, name + ".csv")
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        else:
            path = os.path.join(cfg.out, name + ".json")
            payload = [dict(zip(header, row)) for row in rows]
            with open(path, "w", newline="\n") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True, default=_fmt)
                fh.write("\n")
        print("wrote %s" % path)
    else:
        sys.stdout.write(text)
    for note in notes:
        print(note)


def cmd_constants(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    cst = constants(idx)
    rows = [
        ("alpha", cst.alpha),
        ("kappa", cst.kappa),
        ("green_constant", cst.green_const),
        ("sphere_area", cst.sphere_area),
    ]
    _emit(cfg, "constants_n%d_g%g" % (idx.n, idx.gamma), ("name", "value"), rows)
    return EXIT_OK


def cmd_integrals(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    iset = moments.compute_integrals(idx, method=args.method)
    closed = moments.closed_form_ratios(idx)
    rows = []
    worst = 0.0
    for k in range(9):
        ratio = iset.I[k] / iset.C0
        resid = abs(ratio - closed[k])
        worst = max(worst, resid)
        rows.append(("I%d" % (k + 1), ratio, closed[k], resid))
    _emit(
        cfg,
        "integrals_n%d_g%g_%s" % (idx.n, idx.gamma, args.method),
        ("integral", "computed_ratio", "closed_form", "abs_residual"),
        rows,
        notes=["worst residual %.3e (tol %.3e)" % (worst, cfg.tol)],
    )
    return EXIT_OK if worst <= cfg.tol else EXIT_TOLERANCE


def _coefficient_grid(ns, gammas):
    """The coeff-scan rows over the grid ns x gammas from one array pass, and
    the number of sign/gate points compared and mismatched.  The sign/gate
    equivalence holds for n > 2 + 2 gamma, off the numerator's zero set."""
    n, g = ns[:, None], gammas[None, :]
    c = pohozaev.c_value(n, g)
    positive = c > 0.0
    gate = pohozaev.dimension_gate(n, g)
    zero = abs(pohozaev.coefficient_numerator(n, g)) < 1e-12
    compared = (n > 2 + 2 * g) & ~zero
    # one Python float per gamma, shared by the rows of every n
    gs = gammas.tolist()
    rows = [
        row
        for k, nk in enumerate(ns.tolist())
        for row in zip(repeat(nk), gs, *(a[k].tolist() for a in (c, positive, gate, zero)))
    ]
    return rows, int(np.count_nonzero(compared)), int(np.count_nonzero(compared & (positive != gate)))


# the most coeff-scan rows: a row costs about 350 bytes, so about 350 MB
_MAX_SCAN_ROWS = 10**6


def cmd_coeff_scan(args, cfg):
    if args.n_min < 3 or args.n_max > 64 or args.n_min > args.n_max:
        raise UsageError("dimension range must lie within [3, 64]")
    if not 0 < args.gamma_step < 1:
        raise UsageError("gamma step must lie in (0, 1)")
    # np.arange's length, checked before it allocates
    rows = math.ceil((1.0 - args.gamma_step) / args.gamma_step) * (args.n_max - args.n_min + 1)
    if rows > _MAX_SCAN_ROWS:
        raise UsageError(f"the scan would take {rows} rows, more than {_MAX_SCAN_ROWS}")
    gammas = np.arange(args.gamma_step, 1.0, args.gamma_step)
    ProblemIndex(args.n_min, float(gammas[-1]))  # arange can round its last gamma up to 1
    rows, checked, mismatches = _coefficient_grid(np.arange(args.n_min, args.n_max + 1), gammas)
    verdict = "PASS" if mismatches == 0 else "FAIL"
    _emit(
        cfg,
        "coeff_scan",
        ("n", "gamma", "c_value", "positive", "gate", "boundary_zero"),
        rows,
        notes=[
            "equivalence verdict: %s (%d points checked, %d mismatches)"
            % (verdict, checked, mismatches)
        ],
    )
    return EXIT_OK if mismatches == 0 else EXIT_TOLERANCE


def cmd_pohozaev(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    fld = pohozaev.BubbleExtensionField(idx)
    rows = []
    breach = False
    for r in args.radii:
        rep = pohozaev.pohozaev_P(idx, fld, r)
        scale = max(abs(rep.surface_term), abs(rep.boundary_term))
        # a Python bool, which the tables print as true/false (not np.bool_)
        ok = bool(abs(rep.total) <= cfg.tol * max(scale, 1.0))
        breach = breach or not ok
        rows.append((r, rep.surface_term, rep.boundary_term, rep.total, scale, ok))
    # limit of the truncated functional on the model end profile
    power = pohozaev.PowerField([1.0, 1.0], [idx.m, 0.0])
    computed = pohozaev.pohozaev_Pprime(idx, power, 0.05)
    oracle = pohozaev.limit_value_oracle(idx, 1.0)
    rel = abs(computed - oracle) / abs(oracle)
    breach = breach or rel > 0.01
    rows.append(("limit", computed, oracle, computed - oracle, abs(oracle), bool(rel <= 0.01)))
    _emit(
        cfg,
        "pohozaev_n%d_g%g" % (idx.n, idx.gamma),
        ("radius", "surface_term", "boundary_term", "total", "scale", "within_tol"),
        rows,
    )
    return EXIT_TOLERANCE if breach else EXIT_OK


def _parse_pi(spec_str, n):
    """Accept 'tracefree:diag(a,b,...)' or 'diag(a,b,...)'."""
    s = spec_str.strip()
    trace_free = False
    if s.startswith("tracefree:"):
        trace_free = True
        s = s[len("tracefree:") :]
    if not (s.startswith("diag(") and s.endswith(")")):
        raise UsageError("tensor spec must look like tracefree:diag(1,-1,0)")
    try:
        vals = [float(v) for v in s[5:-1].split(",")]
    except ValueError as exc:
        raise UsageError("bad tensor entries: %s" % exc) from exc
    if len(vals) > n:
        raise UsageError("tensor has more entries than dimensions")
    vals = vals + [0.0] * (n - len(vals))
    return solver.SymmetricTensor(np.diag(vals), trace_free=trace_free)


def _save_solution(cfg, name, **arrays):
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, name + ".npz")
        np.savez(path, **arrays)
        print("wrote %s" % path)


def cmd_solve_extension(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    sizes = args.sizes
    if len(sizes) < 3:
        raise UsageError("need at least three sizes for two refinement pairs")
    # every grid is checked before the first solve
    grids = [solver.WeightedGrid(args.rmax, args.zmax, nn, nn) for nn in sizes]
    errs = []
    last = None
    for grid in grids:
        # one bubble field on (r, r_max) x z is the Dirichlet table, and its
        # first nr rows are the reference
        W = bubble.radial_profiles(idx, np.append(grid.r, grid.r_max), grid.z)["W"]
        u = solver.solve_extension(idx, grid, W)
        errs.append(float(np.abs(u - W[:-1]).max()))
        last = (grid, u)
    orders = [
        float(np.log2(errs[k] / errs[k + 1])) for k in range(len(errs) - 1)
    ]
    rows = [
        (sizes[k], errs[k], orders[k - 1] if k > 0 else "")
        for k in range(len(sizes))
    ]
    _save_solution(
        cfg,
        "extension_n%d_g%g" % (idx.n, idx.gamma),
        solution=last[1],
        r=last[0].r,
        z=last[0].z,
    )
    _emit(
        cfg,
        "extension_summary_n%d_g%g" % (idx.n, idx.gamma),
        ("cells", "linf_error", "order"),
        rows,
        notes=["orders: %s" % ", ".join("%.3f" % o for o in orders)],
    )
    return EXIT_OK if min(orders) >= 1.5 else EXIT_TOLERANCE


def cmd_solve_green(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    fit = solver.green_asymptotics(
        idx, args.radius, width=args.width, resolution=cfg.resolution
    )
    cst = constants(idx)
    slope_target = -(idx.n - 2 * idx.gamma)
    slope_err = abs(fit.slope - slope_target) / abs(slope_target)
    const_err = abs(fit.constant - cst.green_const) / cst.green_const
    rows = [
        ("slope", fit.slope, slope_target, slope_err),
        ("constant", fit.constant, cst.green_const, const_err),
    ]
    _save_solution(
        cfg,
        "green_n%d_g%g" % (idx.n, idx.gamma),
        radii=fit.radii,
        trace_values=fit.trace_values,
    )
    _emit(
        cfg,
        "green_summary_n%d_g%g" % (idx.n, idx.gamma),
        ("quantity", "fitted", "target", "rel_error"),
        rows,
    )
    return EXIT_OK if slope_err <= 0.02 and const_err <= 0.05 else EXIT_TOLERANCE


def cmd_solve_lambda1(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    vals = [(R, solver.rayleigh_lambda1(idx, R, resolution=cfg.resolution)) for R in args.radii]
    scaled = [v * R * R for R, v in vals]
    base = scaled[0]
    resid = max(abs(s - base) / base for s in scaled)
    rows = [(R, v, v * R * R) for R, v in vals]
    _emit(
        cfg,
        "lambda1_n%d_g%g" % (idx.n, idx.gamma),
        ("radius", "lambda1", "lambda1_R2"),
        rows,
        notes=["scaling residual %.3e" % resid],
    )
    return EXIT_OK if resid <= 1e-3 else EXIT_TOLERANCE


def cmd_solve_linearized(args, cfg):
    idx = ProblemIndex(args.n, args.gamma)
    pi = _parse_pi(args.pi, idx.n)
    grid = solver.WeightedGrid(args.box, args.box, cfg.resolution, cfg.resolution)
    res = solver.solve_linearized(idx, pi, args.eps, grid)
    d = res.diagnostics
    energy = max(d["energy"], 1e-300)
    rel_energy = abs(d["ortho_energy"]) / energy
    rows = [
        ("ortho_energy", d["ortho_energy"], rel_energy),
        ("ortho_trace", d["ortho_trace"], abs(d["ortho_trace"]) / energy),
        ("psi_origin", d["psi_origin"], abs(d["psi_origin"])),
        ("envelope_max", d["envelope_max"], d["envelope_max"]),
    ]
    _save_solution(
        cfg,
        "linearized_n%d_g%g" % (idx.n, idx.gamma),
        psi=res.psi,
        r=grid.r,
        z=grid.z,
        pi=pi.entries,
    )
    _emit(
        cfg,
        "linearized_summary_n%d_g%g" % (idx.n, idx.gamma),
        ("diagnostic", "value", "normalized"),
        rows,
    )
    ok = rel_energy <= 1e-3 and abs(d["ortho_trace"]) / energy <= 1e-3
    return EXIT_OK if ok else EXIT_TOLERANCE


def _add_common(parser):
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--config", help="flat key=value config file")


def _add_index(parser):
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--gamma", type=float, required=True)


def _comma_list(kind, text):
    """An argparse type, bound to ``kind`` by ``partial``: ``text`` as a list
    of comma-separated ``kind`` values."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser():
    parser = _Parser(prog="fyk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="closed-form constants for an index")
    _add_index(p)
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("integrals", help="integral-to-normalizer ratio table")
    _add_index(p)
    p.add_argument(
        "--method",
        choices=("bessel_moments", "direct_2d"),
        default="bessel_moments",
    )
    p.add_argument("--tol", type=float, default=None)  # read by the verdict
    _add_common(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("coeff-scan", help="energy-coefficient sign sweep")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--gamma-step", type=float, default=1e-3)
    _add_common(p)
    p.set_defaults(func=cmd_coeff_scan)

    p = sub.add_parser("pohozaev", help="boundary-identity checks")
    _add_index(p)
    p.add_argument("--radii", type=partial(_comma_list, float), default=[0.5, 1.0, 2.0])
    p.add_argument("--tol", type=float, default=None)  # read by the verdict
    _add_common(p)
    p.set_defaults(func=cmd_pohozaev)

    p = sub.add_parser("solve", help="finite-volume solver runs")
    ssub = p.add_subparsers(dest="kind", required=True)

    q = ssub.add_parser("extension")
    _add_index(q)
    q.add_argument("--rmax", type=float, default=6.0)
    q.add_argument("--zmax", type=float, default=6.0)
    q.add_argument("--sizes", type=partial(_comma_list, int), default=[32, 64, 128])
    _add_common(q)
    q.set_defaults(func=cmd_solve_extension)

    q = ssub.add_parser("green")
    _add_index(q)
    q.add_argument("--radius", type=float, default=4.0)
    q.add_argument("--width", type=float, default=None)
    q.add_argument("--resolution", type=int, default=512)
    _add_common(q)
    q.set_defaults(func=cmd_solve_green)

    q = ssub.add_parser("lambda1")
    _add_index(q)
    q.add_argument("--radii", type=partial(_comma_list, float), default=[0.5, 1.0, 2.0])
    q.add_argument("--resolution", type=int, default=96)
    _add_common(q)
    q.set_defaults(func=cmd_solve_lambda1)

    q = ssub.add_parser("linearized")
    _add_index(q)
    q.add_argument("--pi", default="tracefree:diag(1,-1)")
    q.add_argument("--eps", type=float, default=0.5)
    q.add_argument("--box", type=float, default=20.0)
    q.add_argument("--resolution", type=int, default=160)
    _add_common(q)
    q.set_defaults(func=cmd_solve_linearized)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = _build_config(args)
        return args.func(args, cfg)
    except (UsageError, DomainError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        if exc.diagnostics:
            print("diagnostics: %s" % exc.diagnostics, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
