import math
import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from fyk import _threads, specfun
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


@pytest.mark.parametrize("name", _PROFILES)
def test_profiles_at_the_underflow_cutoff_and_beyond(name):
    g = 0.3
    prof = getattr(specfun, name)
    formula = _profile_formulas(g)[name]
    t = np.array([689.999, 690.0, 690.001, 1e4, np.inf])
    want = np.concatenate([formula(t[:2]), np.zeros(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prof(g, t)
        scalars = [prof(g, float(x)) for x in t]
    assert np.array_equal(got, want)
    assert np.array_equal(scalars, want)
    assert all(isinstance(v, float) for v in scalars)
    # below the cutoff the values are the closed form, bit for bit
    dense = np.linspace(1e-3, 690.0, 4001).reshape(1, 4001)
    assert np.array_equal(prof(g, dense), formula(dense))
    if name == "profile_phi":
        assert prof(g, 0.0) == 1.0
        assert np.array_equal(prof(g, np.array([0.0, 1e4])), [1.0, 0.0])
    else:
        with pytest.raises(DomainError):
            prof(g, 0.0)


@pytest.mark.parametrize("name", _PROFILES + ("bessel_k",))
def test_profiles_reject_nan(name):
    prof = getattr(specfun, name)
    with pytest.raises(DomainError):
        prof(0.3, math.nan)
    with pytest.raises(DomainError):
        prof(0.3, np.array([1.0, math.nan, 2.0]))


@pytest.mark.parametrize("g", [0.02, 0.25, 0.5, 0.8, 0.98])
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
def test_profile_overflow_raises(name, g, t, profile_pool):
    # the true value exceeds the float range; it used to come back as +-inf
    prof = getattr(specfun, name)
    with pytest.raises(NumericError):
        prof(g, t)
    tt = np.ones(2 * specfun._CHUNK + 5)
    tt[specfun._CHUNK + 3] = t
    for threads in (1, 2):
        profile_pool(threads)
        with pytest.raises(NumericError):
            prof(g, tt)


@pytest.fixture
def profile_pool(monkeypatch):
    """Install a profile pool of the given size; shut it down afterwards."""
    made = []

    def install(threads):
        if threads == 1:
            pool = None
        else:
            pool = ThreadPoolExecutor(threads)
            made.append(pool)
        monkeypatch.setattr(specfun, "_pool", (threads, pool))

    yield install
    for pool in made:
        pool.shutdown()


def _chunked_input(at_zero):
    """A 2-D input of several chunks, its length no multiple of the chunk,
    with the points where the profiles change their branch sprinkled in."""
    size = 3 * specfun._CHUNK + 1234
    t = np.geomspace(1e-6, 1e3, size)
    edges = [1e-9, 690.0, 690.001, np.inf] + ([0.0] if at_zero else [])
    picks = np.linspace(0, size - 1, 40).astype(int)
    t[picks] = np.resize(edges, picks.size)
    return t.reshape(2, size // 2)


@pytest.mark.parametrize("name", _PROFILES)
def test_pooled_profiles_match_inline(name, profile_pool):
    g = 0.3
    prof = getattr(specfun, name)
    t = _chunked_input(name == "profile_phi")
    profile_pool(1)
    inline = prof(g, t)
    profile_pool(2)
    pooled = prof(g, t)
    assert pooled.shape == t.shape
    assert np.array_equal(pooled, inline)
    # and both are the closed form where kv is called, exactly 0 beyond
    live = (t > 0.0) & (t <= 690.0)
    want = np.zeros_like(t)
    want[live] = _profile_formulas(g)[name](t[live])
    want[t == 0.0] = 1.0
    assert np.array_equal(pooled, want)


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("the pool was used")


@pytest.mark.parametrize("name", _PROFILES)
def test_inputs_of_one_chunk_stay_in_the_calling_thread(name, monkeypatch):
    monkeypatch.setattr(specfun, "_pool", (2, _NoPool()))
    prof = getattr(specfun, name)
    prof(0.3, 2.0)
    prof(0.3, np.linspace(0.1, 800.0, specfun._CHUNK))
    with pytest.raises(AssertionError, match="the pool was used"):
        prof(0.3, np.linspace(0.1, 800.0, specfun._CHUNK + 1))


def test_an_error_in_a_chunk_is_raised_once(profile_pool):
    # two chunks overflow; the call raises the first chunk's NumericError
    profile_pool(2)
    t = np.ones(4 * specfun._CHUNK)
    t[specfun._CHUNK + 7] = 1e-200
    t[3 * specfun._CHUNK] = 1e-250
    with pytest.raises(NumericError) as err:
        specfun.profile_what(0.8, t)
    assert err.value.diagnostics == {"t": 1e-200}


def test_profile_pool_size(monkeypatch):
    monkeypatch.setattr(specfun, "_pool", None)
    monkeypatch.setenv("FYK_THREADS", "2")
    threads, pool = specfun._profile_pool()
    try:
        assert threads == 2
        assert specfun._profile_pool()[1] is pool  # made once
    finally:
        pool.shutdown()
    monkeypatch.setattr(specfun, "_pool", None)
    monkeypatch.setenv("FYK_THREADS", "1")
    assert specfun._profile_pool() == (1, None)


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more callers than cores and a short switch interval: the pool is made
    # once, and every caller gets its own result, whole
    monkeypatch.setattr(specfun, "_pool", None)
    monkeypatch.setenv("FYK_THREADS", "4")
    t = np.linspace(0.1, 50.0, 2 * specfun._CHUNK + 11)
    want = _profile_formulas(0.3)["profile_phi"](t)
    pools, results = [], [None] * 8

    def call(k):
        pools.append(specfun._profile_pool())
        results[k] = specfun.profile_phi(0.3, t)

    callers = [threading.Thread(target=call, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in callers:
            th.start()
        for th in callers:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(th.is_alive() for th in callers)
        assert len({id(pool) for _, pool in pools}) == 1
        assert all(np.array_equal(r, want) for r in results)
    finally:
        specfun._pool[1].shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pool_in_a_forked_child(monkeypatch):
    monkeypatch.setattr(specfun, "_pool", None)
    monkeypatch.setenv("FYK_THREADS", "2")
    t = np.linspace(0.1, 50.0, 3 * specfun._CHUNK)
    want = specfun.profile_phi(0.3, t)  # the parent's pool now exists

    def child():
        ok = np.array_equal(specfun.profile_phi(0.3, t), want)
        os._exit(0 if ok else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    try:
        assert not proc.is_alive(), "the child hung on the inherited pool"
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
        specfun._pool[1].shutdown()


def test_thread_count_from_the_environment(monkeypatch):
    monkeypatch.delenv("FYK_THREADS", raising=False)
    assert _threads.threads() == len(os.sched_getaffinity(0))
    for raw, want in (("", len(os.sched_getaffinity(0))), ("3", 3), ("0", 1)):
        monkeypatch.setenv("FYK_THREADS", raw)
        assert _threads.threads() == want
    monkeypatch.setenv("FYK_THREADS", "zebra")
    with pytest.raises(ValueError, match="FYK_THREADS"):
        _threads.threads()


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
