import importlib.util
import math
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from fyk import specfun
from fyk.errors import DomainError, NumericError
from fyk.specfun import ProblemIndex, constants


def test_problem_index_validation():
    with pytest.raises(DomainError):
        ProblemIndex(0, 0.5)
    with pytest.raises(DomainError):
        ProblemIndex(3, 0.0)
    with pytest.raises(DomainError):
        ProblemIndex(3, 1.0)
    with pytest.raises(DomainError):
        ProblemIndex(1, 0.6)  # n <= 2*gamma
    idx = ProblemIndex(5, 0.25)
    assert idx.m == 4.5
    assert idx.p_critical == pytest.approx(5.5 / 4.5)
    with pytest.raises(DomainError):
        ProblemIndex(3, 0.5).require_supercritical()
    ProblemIndex(4, 0.5).require_supercritical()


def test_gamma_fn_matches_reference():
    xs = np.array([0.25, 0.5, 1.0, 1.5, 3.7, 10.0])
    from scipy.special import gamma as ref

    assert np.allclose(specfun.gamma_fn(xs), ref(xs), rtol=1e-15)
    assert specfun.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi))
    with pytest.raises(DomainError):
        specfun.gamma_fn(-1.0)
    with pytest.raises(DomainError):
        specfun.gamma_fn(math.nan)
    with pytest.raises(DomainError):
        specfun.gamma_fn(np.array([1.5, math.nan]))


@pytest.mark.parametrize("order", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
def test_bessel_k_integral_representation(order, t):
    # K_nu(t) = int_0^inf exp(-t cosh s) cosh(nu s) ds, an independent route
    val, err = integrate.quad(
        lambda s: math.exp(-t * math.cosh(s)) * math.cosh(order * s),
        0.0,
        30.0,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    assert specfun.bessel_k(order, t) == pytest.approx(val, rel=1e-11)


def test_bessel_k_half_closed_form():
    t = np.linspace(0.2, 8.0, 20)
    want = np.sqrt(math.pi / 2.0 / t) * np.exp(-t)
    assert np.allclose(specfun.bessel_k(0.5, t), want, rtol=1e-13)


@given(
    g=st.floats(0.05, 0.95),
    t=st.floats(0.05, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_profile_phi_solves_weighted_ode(g, t):
    # phi'' + ((1-2g)/t) phi' - phi = 0, checked by central differences
    # step proportional to t: near 0 the t^(2g) component makes higher
    # derivatives blow up, so an absolute step loses accuracy there
    h = 1e-4 * t
    f = lambda s: specfun.profile_phi(g, s)
    d2 = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    resid = d2 + (1.0 - 2.0 * g) / t * d1 - f(t)
    scale = max(abs(d2), abs((1.0 - 2.0 * g) / t * d1), abs(f(t)), 1.0)
    assert abs(resid) <= 1e-4 * scale


def test_profile_phi_boundary_values():
    assert specfun.profile_phi(0.3, 0.0) == 1.0
    assert specfun.profile_phi(0.3, 800.0) == 0.0
    # derivative consistent with finite differences
    g, t = 0.45, 1.3
    h = 1e-6
    fd = (specfun.profile_phi(g, t + h) - specfun.profile_phi(g, t - h)) / (2 * h)
    assert specfun.profile_phi_prime(g, t) == pytest.approx(fd, rel=1e-8)


def test_profile_what_derivative():
    g, t = 0.3, 0.8
    h = 1e-6
    fd = (specfun.profile_what(g, t + h) - specfun.profile_what(g, t - h)) / (2 * h)
    assert specfun.profile_what_prime(g, t) == pytest.approx(fd, rel=1e-8)


def _profile_formulas(g):
    """The closed forms each profile evaluates below the underflow cutoff."""
    d1 = 2.0 ** (1.0 - g) / math.gamma(g)
    return {
        "profile_phi": lambda t: d1 * t**g * special.kv(g, t),
        "profile_phi_prime": lambda t: -d1 * t**g * special.kv(1.0 - g, t),
        "profile_what": lambda t: t ** (-g) * special.kv(g, t),
        "profile_what_prime": lambda t: -2.0 * g * t ** (-g - 1.0) * special.kv(g, t)
        - t ** (-g) * special.kv(1.0 - g, t),
    }


_PROFILES = ("profile_phi", "profile_phi_prime", "profile_what", "profile_what_prime")


def _mp_profiles(g):
    """The profiles in 30-digit arithmetic."""
    g = mpmath.mpf(g)
    d1 = 2 ** (1 - g) / mpmath.gamma(g)
    return {
        "profile_phi": lambda t: d1 * t**g * mpmath.besselk(g, t),
        "profile_phi_prime": lambda t: -d1 * t**g * mpmath.besselk(1 - g, t),
        "profile_what": lambda t: t ** (-g) * mpmath.besselk(g, t),
        "profile_what_prime": lambda t: -2 * g * t ** (-g - 1) * mpmath.besselk(g, t)
        - t ** (-g) * mpmath.besselk(1 - g, t),
    }


def _rel_err(got, want):
    return np.abs(np.asarray(got) / np.asarray(want) - 1.0)


def _within_kernel_bounds(t, err):
    """The kernel's accuracy contract: 2e-15 relative up to t = 128, 1e-13
    beyond."""
    return np.all(err <= np.where(t <= 128.0, 2e-15, 1e-13))


@pytest.mark.parametrize("name", _PROFILES)
def test_profiles_at_the_underflow_cutoff_and_beyond(name):
    g = 0.3
    prof = getattr(specfun, name)
    t = np.array([689.999, 690.0, 690.001, 1e4, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prof(g, t)
        scalars = [prof(g, float(x)) for x in t]
    assert np.array_equal(scalars, got)
    assert all(isinstance(v, float) for v in scalars)
    assert np.array_equal(got[2:], np.zeros(3))
    with mpmath.workdps(30):
        mp = _mp_profiles(g)[name]
        assert np.all(_rel_err(got[:2], [float(mp(mpmath.mpf(x))) for x in t[:2]]) <= 1e-13)
        # below the cutoff: the 30-digit values, and SciPy's kv formula to
        # within kv's own error
        sample = np.geomspace(1e-3, 690.0, 41)
        want = [float(mp(mpmath.mpf(x))) for x in sample]
    assert _within_kernel_bounds(sample, _rel_err(prof(g, sample), want))
    dense = np.linspace(1e-3, 690.0, 4001).reshape(1, 4001)
    assert np.all(_rel_err(prof(g, dense), _profile_formulas(g)[name](dense)) <= 1e-13)
    if name == "profile_phi":
        assert prof(g, 0.0) == 1.0
        assert np.array_equal(prof(g, np.array([0.0, 1e4])), [1.0, 0.0])
    else:
        with pytest.raises(DomainError):
            prof(g, 0.0)


@pytest.mark.parametrize("name", _PROFILES + ("profile_phi_pair", "bessel_k"))
def test_profiles_reject_nan(name):
    prof = getattr(specfun, name)
    with pytest.raises(DomainError):
        prof(0.3, math.nan)
    with pytest.raises(DomainError):
        prof(0.3, np.array([1.0, math.nan, 2.0]))


# -- the (K_g, K_(1-g)) kernel ------------------------------------------------

_KERNEL_GAMMAS = [0.02, 0.25, 0.5, 0.8, 0.98]


def _band_points(seed):
    """Two random points in every octave from 2^-40 (about 1e-12) to 690,
    each octave edge, the float just below it, and both ends."""
    rng = np.random.default_rng(seed)
    edges = np.ldexp(1.0, np.arange(-40, 10))
    inner = edges[:, None] * rng.uniform(1.0, 2.0, (edges.size, 2))
    t = np.concatenate([inner.ravel(), edges, np.nextafter(edges, 0.0), [1e-12, 689.0, 690.0]])
    return t[(t >= 1e-12) & (t <= 690.0)]


@pytest.mark.parametrize("g", _KERNEL_GAMMAS)
def test_kernel_pair_against_mpmath(g):
    t = _band_points(int(100 * g))
    k0, k1 = specfun._k_pair(g, t)
    with mpmath.workdps(30):
        g_mp = mpmath.mpf(g)
        want0 = [float(mpmath.besselk(g_mp, mpmath.mpf(x))) for x in t]
        want1 = [float(mpmath.besselk(1 - g_mp, mpmath.mpf(x))) for x in t]
    assert _within_kernel_bounds(t, _rel_err(k0, want0))
    assert _within_kernel_bounds(t, _rel_err(k1, want1))


def test_kernel_pair_at_half_is_the_closed_form():
    # K_(1/2)(t) = sqrt(pi/(2t)) e^(-t) (DLMF 10.39.2), for both orders
    t = np.concatenate([np.geomspace(1e-12, 690.0, 3001), _band_points(7)])
    want = np.sqrt(math.pi / (2.0 * t)) * np.exp(-t)
    for k in specfun._k_pair(0.5, t):
        assert _within_kernel_bounds(t, _rel_err(k, want))


@pytest.mark.parametrize("g", [0.02, 0.25, 0.5, 0.8, 0.98])
def test_kernel_pair_wronskian(g):
    # I_mu K_(mu+1) + I_(mu+1) K_mu = 1/t (DLMF 10.28.2) with mu = -g for
    # g <= 1/2 and mu = g - 1 above, where (K_mu, K_(mu+1)) = (K_g, K_(1-g))
    # up to order; SciPy's iv supplies the I's
    t = np.linspace(1e-8, 600.0, 200001)
    k0, k1 = specfun._k_pair(g, t)
    mu = -g if g <= 0.5 else g - 1.0
    k_mu, k_mu1 = (k0, k1) if g <= 0.5 else (k1, k0)
    w = special.iv(mu, t) * k_mu1 + special.iv(mu + 1.0, t) * k_mu
    assert np.abs(t * w - 1.0).max() <= 1e-13


def test_kernel_values_depend_on_the_point_alone():
    # a shuffled input, a strided subset and single points give the
    # values of the whole input, bit for bit
    rng = np.random.default_rng(5)
    t = np.concatenate([np.geomspace(1e-12, 690.0, 20000), _band_points(3)])
    for g in (0.25, 0.8):
        k0, k1 = specfun._k_pair(g, t)
        perm = rng.permutation(t.size)
        p0, p1 = specfun._k_pair(g, t[perm])
        assert np.array_equal(p0, k0[perm]) and np.array_equal(p1, k1[perm])
        s0, s1 = specfun._k_pair(g, t[3::7])
        assert np.array_equal(s0, k0[3::7]) and np.array_equal(s1, k1[3::7])
        for i in rng.choice(t.size, 60, replace=False):
            one0, one1 = specfun._k_pair(g, t[i : i + 1])
            assert one0[0] == k0[i] and one1[0] == k1[i]


# -- the pair (J_0, J_1) --------------------------------------------------------


def _j01_sweep():
    """(0, 3000] densely, with the panel edges of _j01 and their neighbours."""
    edges = specfun._J01_EDGES
    return np.concatenate([
        [1e-300, 1e-9],
        np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
        np.linspace(0.0, 40.0, 2001)[1:],
        np.geomspace(40.0, 3000.0, 1001),
    ])


def test_j01_against_mpmath_no_worse_than_cephes():
    # absolute error against 30-digit values: measured 1.8e-16 for both
    # orders (rounding of the u < 8 panels), Cephes 2.1e-15 and 3.6e-15 (its
    # phase at large u)
    u = _j01_sweep()
    ours = specfun._j01(u)
    cephes = (special.j0(u), special.j1(u))
    with mpmath.workdps(30):
        for nu in (0, 1):
            want = [mpmath.besselj(nu, mpmath.mpf(x)) for x in u]
            err = [np.array([abs(float(mpmath.mpf(v) - w)) for v, w in zip(got[nu], want)])
                   for got in (ours, cephes)]
            assert err[0].max() <= 2.5e-16, nu
            assert err[0].max() <= err[1].max(), nu


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="long double is not x86 extended precision"
)
@pytest.mark.parametrize("g", [0.05, 0.3, 0.8])
def test_what_long_rounds_correctly_on_an_s_rule(g):
    # every third node of a cached s-rule, against 30-digit values: within
    # half an ulp and a hair, where the rules' e^(-45) and long double's
    # rounding could tip a near-tie (measured: every node correctly rounded)
    from fyk import bubble

    t = bubble._s_nodes(8.0)[0][::3]
    got = specfun._what_long(g, t)
    with mpmath.workdps(30):
        G = mpmath.mpf(g)
        for x, v in zip(t, got):
            want = mpmath.mpf(float(x)) ** (-G) * mpmath.besselk(G, mpmath.mpf(float(x)))
            assert abs(mpmath.mpf(float(v)) - want) <= 0.51 * np.spacing(float(want)), (g, x)


def test_j01_values_depend_on_their_own_point_alone():
    u = _j01_sweep()
    j0, j1 = specfun._j01(u)
    perm = np.random.default_rng(3).permutation(u.size)[: u.size // 2 * 2]
    p0, p1 = specfun._j01(u[perm].reshape(-1, 2))
    assert np.array_equal(p0.ravel(), j0[perm]) and np.array_equal(p1.ravel(), j1[perm])
    assert specfun._j01(np.array([0.0])) == (1.0, 0.0)


def test_j01_table_matches_its_generator():
    # the pinned coefficients, regenerated by tools/j01_table.py on the
    # first panel of J_0 and J_1 and the last panel of Hankel's factors
    path = Path(__file__).parent.parent / "tools" / "j01_table.py"
    spec = importlib.util.spec_from_file_location("j01_table", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    lo, hi, series = specfun.J_PANELS[0]
    assert gen.j_panel(lo, hi) == series
    lo, hi, series = specfun.PQ_PANELS[-1]
    assert hi == math.inf and gen.pq_panel(lo) == series


def test_profiles_and_field_evaluators_leave_scipy_kv_alone(monkeypatch):
    from fyk import bubble

    def kv(*args):
        raise AssertionError("special.kv was called")

    monkeypatch.setattr(special, "kv", kv)
    t = np.geomspace(1e-9, 800.0, 1001)
    for name in _PROFILES + ("profile_phi_pair",):
        getattr(specfun, name)(0.3, t)
    idx = ProblemIndex(4, 0.35)  # an index whose s-rule is not cached yet
    fields = ("W", "Wr_over_r", "Wz", "lap_tan")
    pts = np.array([0.2, 1.0, 3.0])
    bubble.radial_profiles(idx, pts, pts, fields)
    bubble.paired_profiles(idx, pts, pts, fields)
    bubble.polar_profiles(idx, pts / 3.0, d=np.array([0.1, 0.8]), fields=fields)


def test_profile_phi_pair_is_phi_and_phi_prime():
    g = 0.7
    t = _chunked_input(False)
    phi, phi_prime = specfun.profile_phi_pair(g, t)
    assert phi.shape == phi_prime.shape == t.shape
    assert np.array_equal(phi, specfun.profile_phi(g, t))
    assert np.array_equal(phi_prime, specfun.profile_phi_prime(g, t))
    pair = specfun.profile_phi_pair(g, 2.5)
    assert pair == (specfun.profile_phi(g, 2.5), specfun.profile_phi_prime(g, 2.5))
    assert all(isinstance(v, float) for v in pair)
    assert specfun.profile_phi_pair(g, 700.0) == (0.0, 0.0)
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            specfun.profile_phi_pair(g, bad)
    with pytest.raises(NumericError):
        specfun.profile_phi_pair(0.02, np.array([1.0, 5e-324]))


@pytest.mark.parametrize("g", _KERNEL_GAMMAS)
def test_profile_decay_bound_dominates_phi_and_its_derivative(g):
    # the decay cut of the Fourier-Bessel sums drops a term only where this
    # bound on the profile is negligible, so it must hold at every t >= 1
    t = np.linspace(1.0, 700.0, 200001)
    bound = specfun.profile_decay_bound(g, t)
    assert np.all(specfun.profile_phi(g, t) <= bound)
    assert np.all(np.abs(specfun.profile_phi_prime(g, t)) <= bound)
    # and it is tight for large t, where the cut applies
    assert specfun.profile_phi(g, 600.0) >= 0.99 * specfun.profile_decay_bound(g, 600.0)


def test_profile_decay_bound_rejects_bad_input():
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            specfun.profile_decay_bound(0.8, t)
    # e^(-t) underflows to exactly 0, without a warning
    bound = specfun.profile_decay_bound(0.8, 1e4)
    assert isinstance(bound, float) and bound == 0.0


@pytest.mark.parametrize(
    "name, g, t", [("profile_what", 0.8, 1e-200), ("profile_what_prime", 0.25, 1e-300)]
)
def test_profile_overflow_raises(name, g, t):
    # the true value exceeds the float range; it used to come back as +-inf
    prof = getattr(specfun, name)
    with pytest.raises(NumericError):
        prof(g, t)
    tt = np.ones(2 * specfun._CHUNK + 5)
    tt[specfun._CHUNK + 3] = t
    with pytest.raises(NumericError):
        prof(g, tt)


def _chunked_input(at_zero):
    """A 2-D input of several chunks, its length no multiple of the chunk,
    with the points where the profiles change their branch sprinkled in."""
    size = 3 * specfun._CHUNK + 1234
    t = np.geomspace(1e-6, 1e3, size)
    edges = [1e-9, 0.5, 690.0, 690.001, np.inf] + ([0.0] if at_zero else [])
    picks = np.linspace(0, size - 1, 40).astype(int)
    t[picks] = np.resize(edges, picks.size)
    return t.reshape(2, size // 2)


@pytest.mark.parametrize("name", _PROFILES)
def test_chunked_profiles_match_their_chunks(name):
    # one input of several chunks gives, bit for bit, the values of its
    # chunks evaluated one by one and of slices that straddle them
    g = 0.3
    prof = getattr(specfun, name)
    t = _chunked_input(name == "profile_phi")
    got = prof(g, t)
    assert got.shape == t.shape
    flat, vals = t.ravel(), got.ravel()
    C = specfun._CHUNK
    for i in range(0, flat.size, C):
        assert np.array_equal(prof(g, flat[i : i + C]), vals[i : i + C])
    for i in (C - 17, 2 * C - 1):
        assert np.array_equal(prof(g, flat[i : i + 40]), vals[i : i + 40])
    # and they are the closed form where the kernel is called, 0 beyond
    live = (t > 0.0) & (t <= 690.0)
    assert np.all(_rel_err(got[live], _profile_formulas(g)[name](t[live])) <= 1e-13)
    assert np.array_equal(got[t > 690.0], np.zeros(np.count_nonzero(t > 690.0)))
    assert np.all(got[t == 0.0] == 1.0)


@pytest.mark.parametrize("name", _PROFILES)
def test_inputs_of_one_chunk_stay_in_the_calling_thread(name, monkeypatch):
    # every chunk, of an input of one chunk or of several, is evaluated in
    # the calling thread: no thread is started
    seen = []
    k_pair = specfun._k_pair

    def spy(g, t):
        seen.append(threading.get_ident())
        return k_pair(g, t)

    monkeypatch.setattr(specfun, "_k_pair", spy)
    before = threading.active_count()
    prof = getattr(specfun, name)
    prof(0.3, 2.0)
    prof(0.3, np.linspace(0.1, 800.0, specfun._CHUNK))
    prof(0.3, np.linspace(0.1, 800.0, 3 * specfun._CHUNK + 1))
    assert len(seen) == 1 + 1 + 4
    assert set(seen) == {threading.get_ident()}
    assert threading.active_count() == before


def test_an_error_in_a_chunk_is_raised_once():
    # two chunks overflow; the call raises the first chunk's NumericError
    t = np.ones(4 * specfun._CHUNK)
    t[specfun._CHUNK + 7] = 1e-200
    t[3 * specfun._CHUNK] = 1e-250
    with pytest.raises(NumericError) as err:
        specfun.profile_what(0.8, t)
    assert err.value.diagnostics == {"t": 1e-200}


def test_sphere_area_values():
    assert specfun.sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert specfun.sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert specfun.sphere_area(4) == pytest.approx(2.0 * math.pi**2)
    # recursion |S^n| = 2 pi / (n-1) |S^(n-2)|
    for n in range(4, 12):
        assert specfun.sphere_area(n) == pytest.approx(
            2.0 * math.pi / (n - 2) * specfun.sphere_area(n - 2), rel=1e-14
        )


def test_constants_at_3_half():
    c = constants(ProblemIndex(3, 0.5))
    assert c.alpha == pytest.approx(2.0, rel=1e-14)
    assert c.kappa == pytest.approx(1.0, rel=1e-14)
    assert c.green_const == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)
    assert c.sphere_area == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_kappa_closed_form():
    # kappa = 2^(2g-1) Gamma(g) / Gamma(1-g)
    for g in (0.2, 0.35, 0.5, 0.8):
        idx = ProblemIndex(5, g)
        want = 2.0 ** (2.0 * g - 1.0) * math.gamma(g) / math.gamma(1.0 - g)
        assert constants(idx).kappa == pytest.approx(want, rel=1e-14)
