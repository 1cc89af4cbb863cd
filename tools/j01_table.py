"""Generate ``src/fyk/_j01_table.py``, the pinned coefficients of the numpy
Bessel kernel ``fyk.specfun._j01`` (J_0 and J_1 of a real argument).

    python tools/j01_table.py    # rewrite the table module

Needs mpmath.  Every coefficient is a Chebyshev interpolant computed at 40
digits and then written in the monomial basis of the panel's local variable
t in [-1, 1], highest power first, for Horner's rule:

* below u = 8, panels [0, 4) and [4, 8) of J_0 and J_1 themselves, in
  t = (2u - lo - hi) / (hi - lo);
* from u = 8 on, Hankel's non-oscillatory factors (DLMF 10.17.3),

      J_nu(u) = sqrt(2 / (pi u)) (P_nu(u) cos chi - Q_nu(u) sin chi),
      chi = u - (nu/2 + 1/4) pi,

  as P_nu and u Q_nu, smooth in x = (lo / u)^2, on [8, 16), [16, 32) and
  [32, inf), in t = 2 (x - x_hi) / (1 - x_hi) - 1 with x_hi = (lo / hi)^2,
  so t = -1 at the far end and t = 1 at u = lo.

Each series keeps the fewest terms whose dropped Chebyshev tail sums below
2^-58, the same count for both functions of a panel (for P and uQ, the
largest of the four).  So every polynomial is within about 3.5e-18 of its
function before rounding, and the kernel's error is its own rounding.
"""
from pathlib import Path

import mpmath as mp

J_EDGES = (0, 4, 8)
PQ_EDGES = (8, 16, 32)
NODES = 48  # Chebyshev points per interpolant, far past every kept degree
DPS = 40
TAIL = mp.mpf(2) ** -58
TABLE = Path(__file__).resolve().parent.parent / "src" / "fyk" / "_j01_table.py"


def chebyshev(f):
    """Chebyshev coefficients of f on [-1, 1], from NODES first-kind points."""
    n = NODES
    theta = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
    vals = [f(mp.cos(th)) for th in theta]
    c = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(vals, theta)) / n for k in range(n)]
    c[0] /= 2
    return c


def kept_degree(series):
    """The least degree D whose dropped tails, c_k for k > D, all sum below
    TAIL."""
    for d in range(NODES):
        if all(mp.fsum(abs(v) for v in c[d + 1:]) < TAIL for c in series):
            return d
    raise ValueError("no degree below %d meets the tail bound" % NODES)


def monomial(c):
    """sum c_k T_k(t) as monomial coefficients of t, lowest power first."""
    T = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    while len(T) < len(c):
        nxt = [mp.mpf(0)] + [2 * v for v in T[-1]]
        for i, v in enumerate(T[-2]):
            nxt[i] -= v
        T.append(nxt)
    out = [mp.mpf(0)] * len(c)
    for ck, tk in zip(c, T):
        for i, v in enumerate(tk):
            out[i] += ck * v
    return out


def _horner_order(series, degree):
    return tuple(tuple(float(v) for v in reversed(monomial(c[: degree + 1]))) for c in series)


def j_panel(lo, hi):
    """(J_0, J_1) on [lo, hi) in t = (2u - lo - hi) / (hi - lo)."""
    with mp.workdps(DPS):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        series = [
            chebyshev(lambda t, nu=nu: mp.besselj(nu, lo + (hi - lo) * (t + 1) / 2))
            for nu in (0, 1)
        ]
        return _horner_order(series, kept_degree(series))


def hankel_factors(nu, u):
    """P_nu(u) and u Q_nu(u) from J_nu and Y_nu (DLMF 10.17.3 inverted)."""
    chi = u - (mp.mpf(nu) / 2 + mp.mpf(1) / 4) * mp.pi
    j, y = mp.besselj(nu, u), mp.bessely(nu, u)
    f = mp.sqrt(mp.pi * u / 2)
    return f * (j * mp.cos(chi) + y * mp.sin(chi)), f * u * (y * mp.cos(chi) - j * mp.sin(chi))


def pq_panel(lo, hi=None):
    """(P_0, u Q_0, P_1, u Q_1) on [lo, hi) in the local variable of
    x = (lo / u)^2; hi = None is the last panel, to infinity, where the
    factors take their limits 1 and (4 nu^2 - 1) / 8 at x = 0."""
    with mp.workdps(DPS):
        lo = mp.mpf(lo)
        x_hi = 0 if hi is None else (lo / hi) ** 2

        def factor(nu, which):
            def f(t):
                x = x_hi + (1 - x_hi) * (t + 1) / 2
                if x == 0:
                    return (mp.mpf(1), (4 * mp.mpf(nu) ** 2 - 1) / 8)[which]
                return hankel_factors(nu, lo / mp.sqrt(x))[which]

            return f

        series = [chebyshev(factor(nu, which)) for nu in (0, 1) for which in (0, 1)]
        return _horner_order(series, kept_degree(series))


def panels():
    """Every panel of the table: ('J', lo, hi, coefficients) and
    ('PQ', lo, hi, coefficients), hi = inf on the last."""
    out = [("J", lo, hi, j_panel(lo, hi)) for lo, hi in zip(J_EDGES, J_EDGES[1:])]
    his = PQ_EDGES[1:] + (None,)
    out += [("PQ", lo, hi, pq_panel(lo, hi)) for lo, hi in zip(PQ_EDGES, his)]
    return out


def render():
    lines = [
        '"""Coefficients of the numpy J_0 / J_1 kernel ``specfun._j01``.',
        "",
        "Generated by tools/j01_table.py (mpmath, 40 digits); do not edit.",
        "Each entry is (lo, hi, series): on J panels the series are J_0 and J_1",
        "in t = (2u - lo - hi) / (hi - lo); on Hankel panels P_0, u Q_0, P_1",
        "and u Q_1 in t = 2 (x - x_hi) / (1 - x_hi) - 1, x = (lo / u)^2,",
        "x_hi = (lo / hi)^2.  Coefficients run from the highest power down.",
        '"""',
        "",
    ]
    groups = {"J": [], "PQ": []}
    for kind, lo, hi, series in panels():
        groups[kind].append((lo, hi, series))
    for kind, name in (("J", "J_PANELS"), ("PQ", "PQ_PANELS")):
        lines.append("%s = (" % name)
        for lo, hi, series in groups[kind]:
            lines.append("    (%r, %s, (" % (float(lo), 'float("inf")' if hi is None else repr(float(hi))))
            for coefs in series:
                lines.append("        (")
                lines.extend("            %r," % v for v in coefs)
                lines.append("        ),")
            lines.append("    )),")
        lines.append(")")
        lines.append("")
    return "\n".join(lines)


def main():
    TABLE.write_text(render())
    print("wrote %s" % TABLE)


if __name__ == "__main__":
    main()
