"""Independent oracles for every benchmark job.

Nothing here imports fyk: the closed forms are written out again from the
paper's statements, and continuum eigenvalues come from mpmath.  Each check
returns a ``Verdict``:

* ``tol_ok``   -- the job meets its acceptance tolerance;
* ``problems`` -- ways in which the program's output is wrong: a CLI exit
  code that contradicts its own table, a table column that disagrees with
  the oracle's closed form, a failed library check;
* ``figures``  -- the named accuracy figures the job measures.  They are set
  by discretization or truncation, not by rounding, so they repeat exactly.
"""
import math
from dataclasses import dataclass, field

import mpmath

from jobs import NEUMANN_FIXED_RADII

EXIT_OK, EXIT_TOLERANCE = 0, 3


@dataclass
class Verdict:
    tol_ok: bool
    problems: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    note: str = ""


# -- closed forms ------------------------------------------------------------


def closed_ratios(n, g):
    return [
        3.0 / (2.0 * (1.0 - g * g)),
        -3.0 * n / (4.0 * (1.0 - g * g)),
        -3.0 / (2.0 * (1.0 + g)),
        (3.0 * n - 2.0 * (1.0 + g)) / (4.0 * (1.0 + g)),
        -1.0,
        1.0,
        (2.0 - g) / (1.0 + g),
        -n / 2.0,
        2.0 - g,
    ]


def sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def alpha(n, g):
    m = n - 2.0 * g
    return 2.0 ** (m / 2.0) * (math.gamma((n + 2.0 * g) / 2.0) / math.gamma(m / 2.0)) ** (m / (4.0 * g))


def kappa(g):
    return 2.0 ** (2.0 * g - 1.0) * math.gamma(g) / math.gamma(1.0 - g)


def green_constant(n, g):
    m = n - 2.0 * g
    return math.gamma(m / 2.0) / (math.pi ** (n / 2.0) * 4.0 ** g * math.gamma(g))


def pohozaev_limit(n, g):
    """P' on U = |x|^(-m) + 1: -kappa m^2/2 times the weighted half-sphere area."""
    m = n - 2.0 * g
    area = sphere_area(n) * math.gamma(n / 2.0) * math.gamma(1.0 - g) / (
        2.0 * math.gamma((n + 2.0 - 2.0 * g) / 2.0)
    )
    return -kappa(g) * 0.5 * m * m * area


def coefficient(n, g):
    num = 3.0 * n * n + n * (16.0 * g * g - 22.0) + 20.0 * (1.0 - g * g)
    return num / (8.0 * n * (n - 1.0) * (1.0 - g * g)), num


def dimension_gate(n, g):
    if g <= math.sqrt(1.0 / 19.0):
        return n >= 7
    if g <= 0.5:
        return n >= 6
    if g <= math.sqrt(5.0 / 11.0):
        return n >= 5
    return n >= 4


def lambda1_continuum(n, g):
    """lambda1 R^2 on the half-ball: the square of j_{m/2,1}."""
    return float(mpmath.besseljzero((n - 2.0 * g) / 2.0, 1)) ** 2


def _rel(a, b):
    return abs(a - b) / abs(b)


# -- CLI table parsing -------------------------------------------------------


def parse_table(text):
    """(header, rows, notes) of one emitted CSV table."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    k = 1
    while k < len(lines) and len(lines[k].split(",")) == len(header):
        rows.append(dict(zip(header, lines[k].split(","))))
        k += 1
    return header, rows, lines[k:]


SAME_NUMBERS_REL = 1e-12


def same_numbers(a, b, rel=SAME_NUMBERS_REL):
    """True when two emitted tables differ at most in numbers that agree to
    ``rel``; every other token must match exactly."""
    ta = a.replace(",", " ").split()
    tb = b.replace(",", " ").split()
    if len(ta) != len(tb):
        return False
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if abs(fx - fy) > rel * max(abs(fx), abs(fy)):
            return False
    return True


def _expect_exit(v, code, passed):
    want = EXIT_OK if passed else EXIT_TOLERANCE
    if code != want:
        v.problems.append("exit %s contradicts the table (expected %d)" % (code, want))


# -- per-job checks ----------------------------------------------------------


def _integrals(n, g, tol):
    def check(out):
        _, rows, _ = parse_table(out["stdout"])
        closed = closed_ratios(n, g)
        v = Verdict(tol_ok=False)
        if len(rows) != 9:
            v.problems.append("expected 9 ratio rows, got %d" % len(rows))
            return v
        worst_abs = worst_rel = 0.0
        for row, want in zip(rows, closed):
            got = float(row["computed_ratio"])
            if _rel(float(row["closed_form"]), want) > 1e-14:
                v.problems.append("%s closed_form column %s != %r" % (row["integral"], row["closed_form"], want))
            if abs(float(row["abs_residual"]) - abs(got - want)) > 1e-12 * max(1.0, abs(want)):
                v.problems.append("%s abs_residual column inconsistent" % row["integral"])
            worst_abs = max(worst_abs, abs(got - want))
            worst_rel = max(worst_rel, _rel(got, want))
        _expect_exit(v, out["exit"], worst_abs <= tol)
        v.tol_ok = worst_rel <= 1e-4  # criterion 1 is relative; --tol is absolute
        v.figures["err_direct_%d_%g" % (n, g)] = worst_rel
        v.note = "worst relative residual %.3e, absolute %.3e" % (worst_rel, worst_abs)
        return v

    return check


def _green(n, g):
    def check(out):
        _, rows, _ = parse_table(out["stdout"])
        by = {r["quantity"]: r for r in rows}
        v = Verdict(tol_ok=False)
        slope_t, const_t = -(n - 2.0 * g), green_constant(n, g)
        if _rel(float(by["slope"]["target"]), slope_t) > 1e-14:
            v.problems.append("slope target %s != %r" % (by["slope"]["target"], slope_t))
        if _rel(float(by["constant"]["target"]), const_t) > 1e-13:
            v.problems.append("constant target %s != %r" % (by["constant"]["target"], const_t))
        e_slope = _rel(float(by["slope"]["fitted"]), slope_t)
        e_const = _rel(float(by["constant"]["fitted"]), const_t)
        v.tol_ok = e_slope <= 0.02 and e_const <= 0.05
        _expect_exit(v, out["exit"], v.tol_ok)
        v.figures.update(err_green_slope=e_slope, err_green_const=e_const)
        v.note = "slope error %.3e, constant error %.3e" % (e_slope, e_const)
        return v

    return check


def _extension(out):
    _, rows, _ = parse_table(out["stdout"])
    errs = [float(r["linf_error"]) for r in rows]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    v = Verdict(tol_ok=min(orders) >= 1.5)
    for row, order in zip(rows[1:], orders):
        if abs(float(row["order"]) - order) > 1e-12:
            v.problems.append("order column %s != %r" % (row["order"], order))
    _expect_exit(v, out["exit"], v.tol_ok)
    v.figures["err_extension"] = errs[-1]
    v.note = "finest-grid error %.3e, orders %s" % (errs[-1], ", ".join("%.3f" % o for o in orders))
    return v


def _lambda1(n, g):
    def check(out):
        _, rows, _ = parse_table(out["stdout"])
        scaled = [float(r["lambda1_R2"]) for r in rows]
        spread = max(abs(s - scaled[0]) / scaled[0] for s in scaled)
        target = lambda1_continuum(n, g)
        err = max(abs(s / target - 1.0) for s in scaled)
        v = Verdict(tol_ok=spread <= 1e-3 and err <= 1e-3)
        _expect_exit(v, out["exit"], spread <= 1e-3)
        v.figures["err_lambda1"] = err
        v.note = "continuum error %.3e (j^2 = %.12g), scaling residual %.3e" % (err, target, spread)
        return v

    return check


def _linearized(out):
    _, rows, _ = parse_table(out["stdout"])
    by = {r["diagnostic"]: r for r in rows}
    e_energy = abs(float(by["ortho_energy"]["normalized"]))
    e_trace = abs(float(by["ortho_trace"]["normalized"]))
    envelope = float(by["envelope_max"]["value"])
    v = Verdict(tol_ok=e_energy <= 1e-3 and e_trace <= 1e-3 and math.isfinite(envelope) and 0 < envelope <= 10.0)
    _expect_exit(v, out["exit"], e_energy <= 1e-3 and e_trace <= 1e-3)
    # the tensor diag(1,-1,0,0) is trace free, so both orthogonality
    # residuals and the value at the origin vanish identically
    for key in ("ortho_energy", "ortho_trace", "psi_origin"):
        if abs(float(by[key]["value"])) > 1e-12:
            v.problems.append("%s = %s, expected 0" % (key, by[key]["value"]))
    v.note = "envelope %.6g" % envelope
    return v


def _pohozaev(n, g, tol=1e-6):
    def check(out):
        _, rows, _ = parse_table(out["stdout"])
        v = Verdict(tol_ok=True)
        worst = 0.0
        for row in rows:
            if row["radius"] == "limit":
                oracle = pohozaev_limit(n, g)
                if _rel(float(row["boundary_term"]), oracle) > 1e-12:
                    v.problems.append("limit oracle column %s != %r" % (row["boundary_term"], oracle))
                ok = _rel(float(row["surface_term"]), oracle) <= 0.01
            else:
                total, scale = float(row["total"]), float(row["scale"])
                worst = max(worst, abs(total) / scale)
                ok = abs(total) <= tol * max(scale, 1.0)
            if (row["within_tol"].lower() == "true") != ok:
                v.problems.append("within_tol %s contradicts radius %s" % (row["within_tol"], row["radius"]))
            v.tol_ok = v.tol_ok and ok
        _expect_exit(v, out["exit"], v.tol_ok)
        v.figures["err_pohozaev"] = worst
        v.note = "worst |P|/scale %.3e" % worst
        return v

    return check


def _coeff_scan(out):
    _, rows, notes = parse_table(out["stdout"])
    v = Verdict(tol_ok=True)
    mismatches = checked = 0
    for row in rows:
        n, g = int(row["n"]), float(row["gamma"])
        c, num = coefficient(n, g)
        if abs(float(row["c_value"]) - c) > 1e-12 * max(1.0, abs(c)):
            v.problems.append("c_value at (%d, %s) is %s, oracle %r" % (n, row["gamma"], row["c_value"], c))
        if (row["gate"] == "true") != dimension_gate(n, g):
            v.problems.append("gate at (%d, %s) disagrees" % (n, row["gamma"]))
        if n > 2 + 2 * g and abs(num) >= 1e-12:
            checked += 1
            if abs(c) > 1e-12 and (row["positive"] == "true") != (c > 0):
                v.problems.append("sign at (%d, %s) disagrees" % (n, row["gamma"]))
            mismatches += (c > 0) != dimension_gate(n, g)
        if len(v.problems) > 5:
            break
    v.tol_ok = mismatches == 0
    _expect_exit(v, out["exit"], v.tol_ok)
    v.note = "%d rows, %d sign/gate points checked, %d mismatches" % (len(rows), checked, mismatches)
    return v


def _fhat_sweep(out):
    v = Verdict(tol_ok=True)
    worst = 0.0
    for n, g, fhat, c_lib in out["value"]:
        c, _ = coefficient(n, g)
        if abs(c_lib - c) > 1e-12 * max(1.0, abs(c)):
            v.problems.append("coefficient(%d, %r) = %r, oracle %r" % (n, g, c_lib, c))
        worst = max(worst, abs(fhat - c) / max(1.0, abs(c)))
    v.tol_ok = worst <= 1e-8
    v.note = "%d points, worst |Fhat - c| %.3e" % (len(out["value"]), worst)
    return v


def _neumann(out):
    n, g = 4, 0.3
    m = n - 2.0 * g
    p = (n + 2.0 * g) / m
    a = alpha(n, g)
    errs = [abs(flux / (a * (1.0 + rho * rho) ** (-m / 2.0)) ** p - 1.0) for rho, flux in out["value"]]
    nfixed = len(NEUMANN_FIXED_RADII)
    v = Verdict(tol_ok=max(errs) <= 1e-3)
    v.figures["err_neumann"] = max(errs[:nfixed])
    v.note = "worst ratio error %.3e on fixed radii, %.3e on drawn radii" % (max(errs[:nfixed]), max(errs[nfixed:]))
    return v


def _jacobi(params):
    def check(out):
        n, g = 4, 0.3
        m = n - 2.0 * g
        val = out["value"]
        xbar, z = params["xbar"], params["z"]
        r2 = sum(x * x for x in xbar)
        # Z^0 = r W_r + z W_z + (m/2) W and Z^k = -x_k W_r / r
        want = [r2 * val["Wr_over_r"] + z * val["Wz"] + 0.5 * m * val["W"]]
        want += [-x * val["Wr_over_r"] for x in xbar]
        scale = abs(val["W"])
        worst = max(abs(a - b) / max(abs(b), scale) for a, b in zip(val["fields"], want))
        v = Verdict(tol_ok=worst <= 1e-5)
        v.note = "worst kernel-field error %.3e" % worst
        return v

    return check


def _poisson_vs_fb(out):
    worst = max(_rel(fb, pk) for fb, pk in out["value"])
    v = Verdict(tol_ok=worst <= 1e-6)
    v.note = "worst route disagreement %.3e" % worst
    return v


def _supnorms(params):
    def check(out):
        K = params["K"]
        sup = out["value"]
        v = Verdict(
            tol_ok=sup["sup_p"] <= 5.0 / K and 2.0 * (sup["sup_grad_p"] + sup["sup_p_dot"]) <= 5.0 * K
        )
        # flat metric: the tangential momenta stay at -2K xbar0, so the
        # Jacobian d p / d xbar0 is exactly 2K
        if abs(sup["sup_grad_p"] / (2.0 * K) - 1.0) > 1e-6:
            v.problems.append("sup_grad_p %r, flat-metric value %r" % (sup["sup_grad_p"], 2.0 * K))
        v.note = "sup_p %.4g, sup_grad_p %.10g, sup_p_dot %.4g" % (sup["sup_p"], sup["sup_grad_p"], sup["sup_p_dot"])
        return v

    return check


def checker(job):
    """The oracle for one job (a dict from ``jobs.job_list``)."""
    name = job["name"]
    fixed = {
        "integrals_direct_7_0.25": _integrals(7, 0.25, 1e-4),
        "integrals_direct_4_0.8": _integrals(4, 0.8, 1e-4),
        "solve_green_3_0.5": _green(3, 0.5),
        "solve_extension_4_0.3": _extension,
        "solve_lambda1_4_0.3": _lambda1(4, 0.3),
        "solve_linearized_4_0.3": _linearized,
        "pohozaev_4_0.3": _pohozaev(4, 0.3),
        "coeff_scan": _coeff_scan,
        "fhat_sweep": _fhat_sweep,
        "neumann_4_0.3": _neumann,
        "poisson_vs_fb_4_0.3": _poisson_vs_fb,
    }
    if name in fixed:
        return fixed[name]
    if name == "jacobi_4_0.3":
        return _jacobi(job["params"])
    if name == "supnorms_3_0.5":
        return _supnorms(job["params"])
    raise KeyError(name)
