import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    BoundParams,
    CliqueSpec,
    DomainError,
    EdgeGround,
    HypParams,
    PBFunction,
    bernoulli_chf_bound,
    bernoulli_chf_exact,
    berry_esseen_gap,
    fr_function,
    hyperconc_moment,
    hyperconc_tail,
    mainchf_bound,
)
from cliquellt.bounds import berry_esseen_ln
from cliquellt.pbf import assignment_weights


def test_bernoulli_bound_at_zero():
    for variant in ("Y", "x", "chi"):
        assert bernoulli_chf_bound(0.0, 0.3, variant) == 1.0


def test_bernoulli_bound_pinned_value():
    assert bernoulli_chf_bound(1.0, 0.5, "chi") == pytest.approx(1.0 - 2.0 / math.pi**2)


def test_bernoulli_bound_dominates_exact():
    caps = {"Y": math.pi / 2, "x": math.pi}
    for p in (0.2, 0.5, 0.8):
        caps["chi"] = math.sqrt(p * (1 - p)) * math.pi
        for variant, cap in caps.items():
            for t in np.linspace(0.0, cap * 0.9999, 100):
                t = float(t)
                assert bernoulli_chf_exact(t, p, variant) <= bernoulli_chf_bound(t, p, variant) + 1e-12


def test_bernoulli_bound_range_errors():
    with pytest.raises(DomainError):
        bernoulli_chf_bound(2.0, 0.5, "Y")
    with pytest.raises(DomainError):
        bernoulli_chf_bound(4.0, 0.5, "x")
    with pytest.raises(DomainError):
        bernoulli_chf_bound(2.0, 0.5, "chi")
    with pytest.raises(DomainError):
        bernoulli_chf_bound(0.1, 0.5, "bogus")


def test_berry_esseen_ln_pinned():
    assert berry_esseen_ln(10, 0.5) == pytest.approx(0.5 / math.sqrt(11.25))


def test_berry_esseen_zero():
    bound, gap = berry_esseen_gap(20, 0.5, 0.0)
    assert bound == 0.0
    assert gap == pytest.approx(0.0, abs=1e-15)


def test_berry_esseen_dominates_on_grid():
    for n in (20, 50):
        for p in (0.3, 0.5):
            cap = 1.0 / (4.0 * berry_esseen_ln(n, p))
            for t in np.linspace(1e-3, cap, 60):
                bound, gap = berry_esseen_gap(n, p, float(t))
                assert gap <= bound + 1e-12


def test_berry_esseen_cubic_small_t():
    # gap ~ O(t^3): log-log slope between t=0.01 and t=0.1 in [2.5, 3.5].
    # Needs p != 1/2: at p = 1/2 the third cumulant vanishes and the gap is O(t^4).
    _, g1 = berry_esseen_gap(50, 0.3, 0.01)
    _, g2 = berry_esseen_gap(50, 0.3, 0.1)
    slope = math.log(g2 / g1) / math.log(10.0)
    assert 2.5 <= slope <= 3.5


@pytest.mark.parametrize("n", [10**3, 10**4, 10**6])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_berry_esseen_gap_matches_a_50_digit_reference(n, p):
    # single**m lost every digit here: at (10^6, .5) it read 9.7e-6 against a bound of 2.6e-6
    mpmath = pytest.importorskip("mpmath")
    t = 0.5
    with mpmath.workdps(50):
        m = math.comb(n, 2)
        q, s = mpmath.mpf(p), mpmath.mpf(t) / mpmath.sqrt(m)
        hi, lo = mpmath.sqrt((1 - q) / q), -mpmath.sqrt(q / (1 - q))
        single = q * mpmath.expj(s * hi) + (1 - q) * mpmath.expj(s * lo)
        exact = float(abs(single**m - mpmath.exp(-mpmath.mpf(t) ** 2 / 2)))
    bound, gap = berry_esseen_gap(n, p, t)
    assert gap == pytest.approx(exact, rel=0.01)
    assert gap <= bound


def test_berry_esseen_range_error():
    with pytest.raises(DomainError):
        berry_esseen_gap(20, 0.5, 100.0)


def test_hyp_params_validation():
    with pytest.raises(DomainError):
        HypParams(d=0, lam=0.3)
    with pytest.raises(DomainError):
        HypParams(d=2, lam=0.7)


def test_hyperconc_moment_q1_equality():
    hp = HypParams(d=3, lam=0.25)
    assert hyperconc_moment(hp, 1.7, 1.0) == pytest.approx(1.7**2)


def test_hyperconc_moment_dominates_exact_fourth_moment():
    rng = np.random.default_rng(44)
    ground = EdgeGround(5)
    import itertools

    for p in (0.2, 0.5):
        coeffs = {}
        for size in (1, 2):
            for S in itertools.combinations(range(ground.size), size):
                if rng.random() < 0.1:
                    coeffs[frozenset(S)] = rng.normal()
        coeffs[frozenset([0, 1])] = 1.0
        f = PBFunction(ground, p, coeffs)
        w = assignment_weights(ground.size, p)
        vals = np.array([f.eval(b) for b in range(1 << ground.size)])
        exact4 = float(np.sum(w * vals**4))
        hp = HypParams(d=f.degree(), lam=min(p, 1 - p))
        assert exact4 <= hyperconc_moment(hp, f.norm2(), 2.0) + 1e-12


def test_hyperconc_tail_dominates_mc():
    # normalized linear form, d=1, p=1/2; threshold just above the validity floor
    rng = np.random.default_rng(55)
    n_vars, samples = 30, 100_000
    lam = 0.5
    hp = HypParams(d=1, lam=lam)
    t = (2.0 * math.e / lam) ** 0.5 + 0.05
    draws = (rng.random((samples, n_vars)) < 0.5) * 2.0 - 1.0  # chi at p=1/2
    f_vals = draws.sum(axis=1) / math.sqrt(n_vars)  # norm2 = 1
    emp = float(np.mean(np.abs(f_vals) >= t))
    se = math.sqrt(max(emp * (1 - emp), 1e-12) / samples)
    assert emp <= hyperconc_tail(hp, 1.0, t) + 3 * se


def test_hyperconc_tail_validity_floor():
    hp = HypParams(d=2, lam=0.3)
    with pytest.raises(DomainError):
        hyperconc_tail(hp, 1.0, 1.0)
    with pytest.raises(DomainError):
        hyperconc_moment(hp, 1.0, 0.5)


def test_hyperconc_tail_far_thresholds_do_not_overflow():
    # (2e/lambda)^(d/2) overflowed at d = 1000, and t^(2/d) at t = 1e300
    with pytest.raises(DomainError):
        hyperconc_tail(HypParams(d=1000, lam=0.5), 1.0, 1e300)
    assert hyperconc_tail(HypParams(d=1, lam=1e-300), 1.0, 1e300) == 0.0
    assert hyperconc_tail(HypParams(d=1, lam=0.5), 1.0, math.inf) == 0.0
    with pytest.raises(DomainError):
        hyperconc_tail(HypParams(d=1, lam=0.5), 1.0, math.nan)


real_or_nan = st.floats(-1e300, 1e300) | st.just(math.nan)
nonneg_or_nan = st.floats(0.0, 1e300) | st.just(math.nan)
unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
lam = st.floats(0.0, 0.5, exclude_min=True)


def _finite_inf_or_domain_error(call):
    try:
        out = call()
    except DomainError:
        return
    for value in out if isinstance(out, tuple) else (out,):
        assert isinstance(value, float) and not math.isnan(value), (out, value)


@settings(max_examples=150)
@given(
    n=st.integers(0, 10**7),
    p=unit,
    t=real_or_nan,
    t_share=st.floats(0.0, 1.0),
    variant=st.sampled_from(["Y", "x", "chi"]),
    d=st.integers(1, 2000),
    lam=lam,
    norm2=nonneg_or_nan,
    q=st.floats(0.0, 1e6) | st.just(math.nan),
    ell=st.integers(1, 300),
    params=st.tuples(nonneg_or_nan, nonneg_or_nan, nonneg_or_nan, nonneg_or_nan),
)
def test_bounds_return_a_float_or_a_domain_error(
    n, p, t, t_share, variant, d, lam, norm2, q, ell, params
):
    hp = HypParams(d=d, lam=lam)
    _finite_inf_or_domain_error(lambda: bernoulli_chf_bound(t, p, variant))
    _finite_inf_or_domain_error(lambda: bernoulli_chf_exact(t, p, variant))
    _finite_inf_or_domain_error(lambda: berry_esseen_ln(n, p))
    _finite_inf_or_domain_error(lambda: berry_esseen_gap(n, p, t))
    if n >= 2:  # a t inside the validity range too
        inside = t_share / (4 * berry_esseen_ln(n, p))
        _finite_inf_or_domain_error(lambda: berry_esseen_gap(n, p, inside))
    _finite_inf_or_domain_error(lambda: hyperconc_tail(hp, norm2, t))
    _finite_inf_or_domain_error(lambda: hyperconc_moment(hp, norm2, q))
    # params: T, delta, eta, spectral1
    _finite_inf_or_domain_error(lambda: mainchf_bound(BoundParams(ell, d % 8 + 1, t * t_share, *params, lam)))


def test_chi_chf_of_a_t_past_the_range_at_the_low_value_is_a_domain_error():
    # for p > 1/2 the x_e = 0 value of chi_e is the larger in size, so t * lo
    # overflows while t * hi is still finite
    with pytest.raises(DomainError):
        bernoulli_chf_exact(-1e308, 1 - 1e-16, "chi")


def make_mainchf_instance(p=0.5, ell=2):
    spec = CliqueSpec(n=5, r=3, p=p)
    f = fr_function(spec)
    sigma = spec.sigma
    kap = (1.0 / sigma) * (f - f.degree_slice(0))
    x_part = kap.degree_slice(1)
    y_part = kap.tail(1)
    a2 = max(c * c for c in x_part.coeffs.values())
    return spec, x_part, y_part, a2, ell


def test_mainchf_dominates_enumeration():
    for p in (0.5, 0.4):
        spec, x_part, y_part, a2, ell = make_mainchf_instance(p=p)
        ground = spec.ground
        w = assignment_weights(ground.size, p)
        xv = np.array([x_part.eval(b) for b in range(1 << ground.size)])
        zv = xv + np.array([y_part.eval(b) for b in range(1 << ground.size)])
        for t in (0.5, 1.0):
            gap = abs(np.sum(w * np.exp(1j * t * zv)) - np.sum(w * np.exp(1j * t * xv)))
            bp = BoundParams(
                ell=ell,
                d=y_part.degree(),
                t=t,
                T=x_part.variance(),
                delta=a2,
                eta=y_part.norm2(),
                spectral1=y_part.spectral_norm1(),
                lam=min(p, 1 - p),
            )
            assert float(gap) <= mainchf_bound(bp) + 1e-12


def test_mainchf_eta_zero_limit():
    bp = BoundParams(ell=2, d=2, t=0.8, T=1.0, delta=0.1, eta=0.0, spectral1=0.0, lam=0.5)
    got = mainchf_bound(bp)
    assert got == pytest.approx(2.0 * bp.epsilon)


def test_mainchf_monotone_in_t_and_eta():
    base = dict(ell=2, d=2, T=1.0, delta=0.01, eta=0.2, spectral1=0.5, lam=0.5)
    ts = np.linspace(0.05, 1.0, 20)
    vals = [mainchf_bound(BoundParams(t=float(t), **base)) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    etas = np.linspace(0.01, 0.5, 20)
    vals = [
        mainchf_bound(
            BoundParams(ell=2, d=2, t=0.5, T=1.0, delta=0.01, eta=float(e), spectral1=0.5, lam=0.5)
        )
        for e in etas
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_mainchf_t_limit_is_the_limit_it_checks():
    bp = BoundParams(ell=2, d=2, t=0.0, T=1.0, delta=0.3, eta=0.7, spectral1=1.0, lam=0.2)
    lim1 = math.sqrt(0.2 * 0.8) * math.pi / math.sqrt(0.3)
    lim2 = (2.0 * math.e) / 0.2 / 0.7
    assert bp.t_limit == pytest.approx(min(lim1, lim2), rel=1e-15)
    assert math.isfinite(mainchf_bound(BoundParams(**{**vars(bp), "t": math.nextafter(bp.t_limit, 0.0)})))
    with pytest.raises(DomainError, match="outside validity range"):
        mainchf_bound(BoundParams(**{**vars(bp), "t": bp.t_limit}))
    assert BoundParams(**{**vars(bp), "delta": 0.0, "eta": 0.0}).t_limit == math.inf


def test_mainchf_validity_errors():
    bp = BoundParams(ell=1, d=2, t=50.0, T=1.0, delta=1.0, eta=1.0, spectral1=1.0, lam=0.5)
    with pytest.raises(DomainError):
        mainchf_bound(bp)
    with pytest.raises(DomainError):
        BoundParams(ell=0, d=2, t=0.5, T=1.0, delta=0.1, eta=0.1, spectral1=0.1, lam=0.5)


def test_mainchf_cp_matches_p_form():
    for p in (0.2, 0.35, 0.5):
        lam = min(p, 1 - p)
        bp = BoundParams(ell=1, d=1, t=0.1, T=1.0, delta=0.01, eta=0.1, spectral1=0.1, lam=lam)
        direct = (1.0 + abs(1.0 - 2.0 * p) / math.sqrt(p * (1 - p))) * math.sqrt((1 - lam) / lam)
        assert bp.cp == pytest.approx(direct)


def test_hyperconc_moment_past_the_float_range_is_inf():
    # (2q-1)^{dq} = 1999^10000 used to raise OverflowError
    assert hyperconc_moment(HypParams(10, 0.5), 1.0, 1000.0) == math.inf
    assert hyperconc_moment(HypParams(10, 0.5), 0.0, 1000.0) == math.inf  # not inf * 0 = nan


def test_hyperconc_moment_keeps_its_value_where_norm2_power_underflows():
    # regression: norm2^4 = (2e-150)^4 underflowed to 0.0, so the bound read 0
    # where 3^6 * 1e300 * 1.6e-599, about 1.2e-296, is a normal float
    assert hyperconc_moment(HypParams(3, 1e-100), 2e-150, 2.0) == pytest.approx(3**6 * 1.6e-299, rel=1e-12, abs=0.0)
    assert hyperconc_moment(HypParams(3, 0.5), 1e-200, 1.0) == 0.0  # the bound itself underflows


def test_mainchf_past_the_float_range_is_inf():
    # (ell+1)! for ell=200 is past the float range; dividing by it used to raise OverflowError
    bp = BoundParams(ell=200, d=3, t=0.5, T=1.0, delta=0.1, eta=0.5, spectral1=2.0, lam=0.5)
    assert mainchf_bound(bp) == math.inf
    # (2e)^{ell/2} in the validity limit passes it too: the limit is then no limit
    assert mainchf_bound(BoundParams(**{**vars(bp), "ell": 2000})) == math.inf
