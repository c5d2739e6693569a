import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    CliqueSpec,
    DomainError,
    EmpiricalDistribution,
    LatticeMismatchError,
    LatticeSpec,
    discrete_gaussian,
    exact_distribution,
    l1_distance,
    lattice_inversion,
    linf_distance,
)
from cliquellt import distributions
from cliquellt.cliques import counts_over_all_graphs
from cliquellt.distributions import CHF_BLOCK, GAUSSIAN_MAX_POINTS, chf_sum
from cliquellt.pbf import popcount_array


def test_lattice_basics():
    lat = LatticeSpec(0.5, 0.25)
    assert lat.contains(0.75)
    assert not lat.contains(0.8)
    assert lat.point(lat.index(0.75 + 1e-12)) == pytest.approx(0.75)
    assert lat.point(2) == 1.0
    assert lat.compatible(LatticeSpec(0.25, 0.25))
    assert not lat.compatible(LatticeSpec(0.5, 0.5))
    for b, h in ((0.0, 0.0), (0.0, math.nan), (0.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            LatticeSpec(b, h)


def test_distribution_moments_and_prob():
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 0.25, 1.0: 0.5, 2.0: 0.25})
    assert d.total() == pytest.approx(1.0)
    assert d.mean() == pytest.approx(1.0)
    assert d.variance() == pytest.approx(0.5)
    assert d.prob(1.0) == 0.5
    assert d.prob(0.5) == 0.0
    with pytest.raises(TypeError):
        d.mass[1.0] = 0.5  # a read-only view of the arrays
    for bad in (math.nan, math.inf, -0.25):
        with pytest.raises(DomainError):
            EmpiricalDistribution(lat, {0.0: bad})
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_indices(lat, [0, 1], [0.5, bad])


def test_distribution_chf_properties():
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 0.3, 1.0: 0.7})
    assert d.chf(0.0) == pytest.approx(d.total())
    for t in (0.3, 1.7):
        assert d.chf(-t) == pytest.approx(d.chf(t).conjugate())
        assert abs(d.chf(t)) <= 1.0 + 1e-12


def test_discrete_gaussian_mass_and_symmetry():
    lat = LatticeSpec(0.0, 1.0)
    for sigma in (10.0, 25.0):
        g = discrete_gaussian(lat, 0.0, sigma)
        assert abs(g.total() - 1.0) < 1e-6  # h/sigma <= 0.1
        for k in (1, 3, 7):
            assert g.prob(float(k)) == pytest.approx(g.prob(float(-k)), rel=1e-12)
    # not renormalized: coarse lattice total deviates visibly from 1
    coarse = discrete_gaussian(LatticeSpec(0.5, 1.0), 0.0, 0.3)
    assert abs(coarse.total() - 1.0) > 1e-4
    bad = ((math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, math.inf), (0.0, 0.0))
    huge = ((0.0, 1e300), (1e300, 1.0), (0.0, 1e12))  # raised ValueError, OverflowError, MemoryError
    for mu, sigma in bad + huge:
        with pytest.raises(DomainError):
            discrete_gaussian(lat, mu, sigma)


def test_discrete_gaussian_matches_density():
    lat = LatticeSpec(0.0, 1.0)
    g = discrete_gaussian(lat, 2.0, 40.0)
    x = 10.0
    expect = math.exp(-((x - 2.0) ** 2) / (2 * 40.0**2)) / (math.sqrt(2 * math.pi) * 40.0)
    assert g.prob(x) == pytest.approx(expect, rel=1e-12)


def test_distances():
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 1.0})
    e = EmpiricalDistribution(lat, {1.0: 1.0})
    assert linf_distance(d, d) == 0.0
    assert l1_distance(d, d) == 0.0
    assert linf_distance(d, e) == 1.0
    assert l1_distance(d, e) == 2.0
    with pytest.raises(LatticeMismatchError):
        linf_distance(d, EmpiricalDistribution(LatticeSpec(0.5, 1.0), {0.5: 1.0}))


def test_inversion_point_mass():
    c = 3.0
    lat = LatticeSpec(0.0, 1.0)
    chf = lambda t: np.exp(1j * np.asarray(t) * c)
    assert lattice_inversion(chf, lat, c) == pytest.approx(1.0, abs=1e-8)
    assert lattice_inversion(chf, lat, c + 1) == pytest.approx(0.0, abs=1e-8)
    assert lattice_inversion(chf, lat, c - 1) == pytest.approx(0.0, abs=1e-8)


def test_inversion_bernoulli():
    p = 0.3
    lat = LatticeSpec(0.0, 1.0)
    chf = lambda t: (1 - p) + p * np.exp(1j * np.asarray(t))
    assert lattice_inversion(chf, lat, 0.0) == pytest.approx(1 - p, abs=1e-8)
    assert lattice_inversion(chf, lat, 1.0) == pytest.approx(p, abs=1e-8)
    assert lattice_inversion(chf, lat, 2.0) == pytest.approx(0.0, abs=1e-8)


def test_inversion_exact_triangle_law():
    spec = CliqueSpec(n=4, r=3, p=0.5)
    dist = exact_distribution(spec)
    lat = dist.lattice
    hint = max(abs(x) for x in dist.mass)
    for x in dist.mass:
        got = lattice_inversion(dist.chf, lat, x, freq_hint=hint)
        assert got == pytest.approx(dist.mass[x], abs=1e-8)


def test_inversion_evaluates_each_t_once():
    # a doubling adds the midpoints of the grid before it and evaluates nothing twice
    spec = CliqueSpec(n=5, r=3, p=0.3)
    dist = exact_distribution(spec)
    hint = max(abs(x) for x in dist.mass)
    for x, m in dist.mass.items():
        seen = []

        def spy(t):
            seen.extend(np.asarray(t).tolist())
            return dist.chf(t)

        assert lattice_inversion(spy, dist.lattice, x, freq_hint=hint) == pytest.approx(m, abs=1e-15)
        assert len(set(seen)) == len(seen)


def _rational_triangle_law(n, p):
    """The exact law of the triangle count of G(n, p) as Fractions, from every graph's count."""
    m = n * (n - 1) // 2
    key = counts_over_all_graphs(n, 3).astype(np.int64) * (m + 1) + popcount_array(m)
    hist = np.bincount(key).reshape(-1, m + 1)
    a, b = Fraction(p).as_integer_ratio()
    return {c: Fraction(sum(g * a**k * (b - a) ** (m - k) for k, g in enumerate(row)), b**m)
            for c, row in enumerate(hist.tolist())}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_inversion_is_within_6e_17_of_the_exact_rational_law(n):
    # the full grid summed by np.sum erred by up to 8.5e-17 (n = 4, p = 0.37)
    for p in (0.5, 0.3, 0.37, 0.9):
        dist = exact_distribution(CliqueSpec(n=n, r=3, p=p))
        exact = _rational_triangle_law(n, p)
        hint = max(abs(x) for x in dist.mass)
        for x in dist.mass:
            got = lattice_inversion(dist.chf, dist.lattice, x, freq_hint=hint)
            assert abs(Fraction(got) - exact[int(x)]) < 6e-17, (n, p, x)


def test_inversion_keeps_its_bits():
    # sha256 of the float.hex of all 448 results, taken before the chf memo
    hexes = []
    for n in range(4, 8):
        for p in (0.5, 0.3, 0.37, 0.9):
            dist = exact_distribution(CliqueSpec(n=n, r=3, p=p))
            hint = max(abs(x) for x in dist.mass)
            for freq_hint in (hint, None):
                hexes += [lattice_inversion(dist.chf, dist.lattice, x, freq_hint=freq_hint).hex() for x in dist.mass]
    assert len(hexes) == 448
    assert hashlib.sha256("\n".join(hexes).encode()).hexdigest()[:16] == "ae170eedf90fe3de"


def _count_chf_sums(monkeypatch):
    """A list that gains one entry per chf_sum call made through the distributions module."""
    calls = []

    def counted(t, x, w):
        calls.append(np.size(t))
        return chf_sum(t, x, w)

    monkeypatch.setattr(distributions, "chf_sum", counted)
    return calls


def test_inverting_every_mass_with_one_hint_evaluates_each_grid_once(monkeypatch):
    dist = exact_distribution(CliqueSpec(n=7, r=3, p=0.5))
    calls = _count_chf_sums(monkeypatch)
    for x in dist.mass:
        lattice_inversion(dist.chf, dist.lattice, x, freq_hint=35.0)
    # 28 masses on the same two grids: 1025 points, then 1024 midpoints (56 calls without the memo)
    assert len(dist.mass) == 28 and calls == [1025, 1024]


def test_inversion_evaluates_the_chf_on_the_nonnegative_half_grid():
    dist = exact_distribution(CliqueSpec(n=7, r=3, p=0.5))
    lat = dist.lattice
    assert max(abs(x) for x in dist.mass) == 35.0
    for x in dist.mass:
        seen = []

        def spy(t):
            seen.extend(np.asarray(t).tolist())
            return dist.chf(t)

        lattice_inversion(spy, lat, x, freq_hint=35.0)
        # 32 * 35 points per period round up to a first grid of 2048: 1025 points, then 1024 midpoints
        assert len(seen) == 2049
        assert [t for t in seen if t < 0] == [-math.pi / lat.h]


def test_inversion_of_hermitian_callables_is_exact_to_1e_15():
    lat = LatticeSpec(0.0, 1.0)
    point = lambda t: np.exp(3j * np.asarray(t))
    for x, mass in ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0)):
        assert abs(lattice_inversion(point, lat, x) - mass) < 1e-15
    p = 0.3
    bernoulli = lambda t: (1 - p) + p * np.exp(1j * np.asarray(t))
    for x, mass in ((0.0, 1 - p), (1.0, p), (2.0, 0.0)):
        assert abs(lattice_inversion(bernoulli, lat, x) - mass) < 1e-15


def test_inversion_that_does_not_converge_stops_at_the_grid_cap():
    # regression: the indicator of |t| < 1 moves the trapezoid sum by O(1/n)
    # per doubling, and the doublings ran on to a grid of 2^24 points
    seen = []

    def chf(t):
        seen.append(np.asarray(t).size)
        return (np.abs(t) < 1).astype(complex)

    with pytest.raises(DomainError, match=f"did not converge on a grid of {GAUSSIAN_MAX_POINTS} points.*changed"):
        lattice_inversion(chf, LatticeSpec(0.0, 1.0), 0.0)
    assert sum(seen) <= GAUSSIAN_MAX_POINTS


def test_inversion_off_lattice_rejected():
    lat = LatticeSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        lattice_inversion(lambda t: 1.0 + 0j, lat, 0.5)


@pytest.mark.parametrize(
    "hint, x",
    [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (1e8, 0.0), (1e300, 0.0), (None, 1e8)],
    ids=["inf", "-inf", "nan", "1e8", "1e300", "x=1e8"],
)
def test_inversion_rejects_a_non_finite_freq_hint(hint, x):
    # regression: an infinite hint never left the grid-size loop, and nan was
    # ignored; a large hint or x sized the first grid past GAUSSIAN_MAX_POINTS
    # (1e300 raised numpy's ValueError)
    def chf(t):
        raise AssertionError("chf evaluated for a freq_hint or x out of range")

    with pytest.raises(DomainError, match="freq_hint"):
        lattice_inversion(chf, LatticeSpec(0.0, 1.0), x, freq_hint=hint)


def test_sparse_indices_stay_sparse():
    d = EmpiricalDistribution(LatticeSpec(0.0, 1.0), {0.0: 0.5, 1e12: 0.5})
    assert d.k.tolist() == [0, 10**12]
    assert d.mean() == 5e11


def test_offset_lattices_align():
    # regression: the same 20 masses on two compatible lattices with different
    # origins were compared by float key and did not line up
    masses = {0.1 + 0.3 * k: 0.1 for k in range(20)}
    d1 = EmpiricalDistribution(LatticeSpec(0.1, 0.3), masses)
    d2 = EmpiricalDistribution(LatticeSpec(0.4, 0.3), masses)
    assert linf_distance(d1, d2) == 0.0
    assert l1_distance(d1, d2) == 0.0
    from cliquellt.distributions import _mass_difference

    assert _mass_difference(d1, d2).size == 20


lattices = st.builds(LatticeSpec, b=st.floats(-5.0, 5.0), h=st.floats(0.1, 3.0))
laws = st.dictionaries(st.integers(-100, 100), st.floats(0.0, 1.0), min_size=1, max_size=30)


def _on(lattice, law):
    return EmpiricalDistribution.from_indices(lattice, list(law), list(law.values()))


@settings(max_examples=100)
@given(lat=lattices, law=laws, other=laws, j=st.integers(-50, 50))
def test_distances_invariant_under_offset_relabelling(lat, law, other, j):
    d = _on(lat, law)
    # the same law written on the origin b + j*h, with every index moved by -j
    moved = EmpiricalDistribution.from_indices(LatticeSpec(lat.b + j * lat.h, lat.h), d.k - j, d.masses)
    e = _on(lat, other)
    assert linf_distance(d, moved) == 0.0
    assert l1_distance(d, moved) == 0.0
    assert linf_distance(moved, e) == linf_distance(d, e)
    assert l1_distance(moved, e) == l1_distance(d, e)
    assert l1_distance(e, moved) == l1_distance(e, d)
    # on one lattice, both agree with the sum over the union of float keys
    diffs = [abs(d.mass.get(x, 0.0) - e.mass.get(x, 0.0)) for x in set(d.mass) | set(e.mass)]
    assert linf_distance(d, e) == max(diffs)
    assert l1_distance(d, e) == pytest.approx(math.fsum(diffs), rel=1e-15, abs=0.0)


@settings(max_examples=100)
@given(
    lat=lattices,
    entries=st.lists(st.tuples(st.integers(-100, 100), st.floats(0.0, 1.0)), min_size=1, max_size=40),
)
def test_mapping_constructor_merges_keys_on_one_point(lat, entries):
    # entry i sits i * 1e-11 steps off its point: distinct keys, one lattice point
    mass = {lat.point(k) + i * 1e-11 * lat.h: m for i, (k, m) in enumerate(entries)}
    expect: dict[int, float] = {}
    for k, m in entries:
        expect[k] = expect.get(k, 0.0) + m
    d = EmpiricalDistribution(lat, mass)
    assert d.k.tolist() == sorted(expect)
    assert d.masses.tolist() == pytest.approx([expect[k] for k in sorted(expect)])


@settings(max_examples=60)
@given(lat=lattices, law=laws, ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
def test_chf_on_an_array_matches_scalar_chf(lat, law, ts):
    d = _on(lat, law)
    got = d.chf(np.array(ts))
    assert got.shape == (len(ts),) and got.dtype == np.complex128
    for t, value in zip(ts, got):
        scalar = d.chf(t)
        assert isinstance(scalar, complex)
        assert abs(value - scalar) <= 1e-12 * max(1.0, d.total())
    assert d.chf(np.array(ts).reshape(-1, 1)).shape == (len(ts), 1)


def test_a_laws_arrays_are_read_only():
    # regression: a write into masses left the mass view at 0.5 while total() read 1.4
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 0.5, 1.0: 0.5})
    with pytest.raises(ValueError):
        d.masses[0] = 0.9
    with pytest.raises(ValueError):
        d.k[0] = 5
    assert dict(d.mass) == {0.0: 0.5, 1.0: 0.5} and d.total() == 1.0
    moved = EmpiricalDistribution.from_indices(lat, d.k - 3, d.masses)
    assert dict(moved.mass) == {-3.0: 0.5, -2.0: 0.5}


def test_chf_memo_returns_fresh_copies_of_the_direct_sum(monkeypatch):
    d = exact_distribution(CliqueSpec(n=6, r=3, p=0.3))
    ts = np.linspace(-math.pi, math.pi, 6)
    direct = chf_sum(ts, d.points(), d.masses)
    calls = _count_chf_sums(monkeypatch)
    first = d.chf(ts)
    assert first.tobytes() == direct.tobytes() and first.flags.writeable
    first[:] = 7.0
    again = d.chf(list(ts))  # the same float64 bytes as a list
    assert again.tobytes() == direct.tobytes() and again.flags.writeable and again is not first
    assert calls == [6]
    # the shape is part of the key; a scalar t is summed directly, each time
    assert d.chf(ts.reshape(2, 3)).shape == (2, 3) and calls == [6, 6]
    assert d.chf(float(ts[1])) == d.chf(ts[1]) == complex(direct[1]) and calls == [6, 6, 1, 1]


def test_chf_memo_drops_the_oldest_grid_past_the_point_cap(monkeypatch):
    d = exact_distribution(CliqueSpec(n=5, r=3, p=0.37))
    grids = [np.linspace(0.0, 3.0, 5) + i for i in range(3)]
    direct = [chf_sum(ts, d.points(), d.masses).tobytes() for ts in grids]
    monkeypatch.setattr(distributions, "GAUSSIAN_MAX_POINTS", 12)
    calls = _count_chf_sums(monkeypatch)
    assert [d.chf(ts).tobytes() for ts in grids] == direct and calls == [5, 5, 5]
    # 15 points > 12: grid 0 went first, grids 1 and 2 stay
    assert [d.chf(ts).tobytes() for ts in grids[1:]] == direct[1:] and calls == [5, 5, 5]
    assert d.chf(grids[0]).tobytes() == direct[0] and calls == [5, 5, 5, 5]
    # a grid larger than the cap is returned but not kept
    wide = np.linspace(0.0, 1.0, 13)
    assert d.chf(wide).tobytes() == d.chf(wide).tobytes() and calls == [5, 5, 5, 5, 13, 13]


def test_two_laws_on_one_grid_keep_their_own_values(monkeypatch):
    laws = [exact_distribution(CliqueSpec(n=5, r=3, p=p)) for p in (0.5, 0.3)]
    ts = np.linspace(0.1, 2.0, 4)
    direct = [chf_sum(ts, d.points(), d.masses) for d in laws]
    assert not np.array_equal(*direct)
    calls = _count_chf_sums(monkeypatch)
    for _ in range(2):
        assert [d.chf(ts).tobytes() for d in laws] == [v.tobytes() for v in direct]
    assert calls == [4, 4]


def test_chf_blocks_agree_with_loop_reference():
    d = exact_distribution(CliqueSpec(n=6, r=3, p=0.3))
    ts = np.linspace(-math.pi, math.pi, 5001)  # 16 support points: blocks of 4096 t
    got = d.chf(ts)
    for i in (0, 1, 4095, 4096, 4097, 5000):
        t = float(ts[i])
        ref = sum(m * complex(math.cos(t * x), math.sin(t * x)) for x, m in d.mass.items())
        assert abs(got[i] - ref) < 1e-13


@pytest.mark.parametrize("block", [1, 7, 64, CHF_BLOCK])
def test_chf_sum_is_the_same_for_any_block(monkeypatch, block):
    rng = np.random.default_rng(block)
    x, w, ts = rng.normal(size=20) * 5, rng.random(20), np.linspace(-3.0, 3.0, 9)
    ref = [math.fsum(w * np.cos(t * x)) + 1j * math.fsum(w * np.sin(t * x)) for t in ts]
    monkeypatch.setattr(distributions, "CHF_BLOCK", block)
    assert np.abs(chf_sum(ts, x, w) - ref).max() < 1e-14
    assert abs(chf_sum(ts[3], x, w) - ref[3]) < 1e-14


def test_chf_sum_refuses_a_phase_past_the_float_range():
    # regression: t x overflowed to inf, and cos and sin gave nan with a warning
    x, w = np.array([-2.5, 0.0, 3.0]), np.ones(3)
    for t in (1e308, -1e308, np.array([0.0, 1e308]), math.inf, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError, match="not finite"):
            chf_sum(t, x, w)
    with pytest.raises(DomainError):
        chf_sum(1.0, np.array([math.inf, -1.0]), np.ones(2))
    with np.errstate(all="raise"):  # 1e307 * 3 is finite: no overflow, no nan
        assert np.isfinite(chf_sum(np.array([1e307, -1e307]), x, w)).all()
        assert chf_sum(1e307, np.zeros(2), np.ones(2)) == 2.0
    assert chf_sum(np.zeros(0), x, w).shape == (0,)


@settings(max_examples=100)
@given(lat=lattices, k=st.integers(-10**6, 10**6), frac=st.floats(0.01, 0.99))
def test_index_round_trips_and_rejects_off_lattice(lat, k, frac):
    assert lat.index(lat.point(k)) == k
    assert lat.index(np.array([lat.point(k), lat.point(k + 1)])).tolist() == [k, k + 1]
    with pytest.raises(DomainError):
        lat.index(lat.point(k + frac))
    with pytest.raises(DomainError):
        lat.index(np.array([lat.point(k), lat.point(k + frac)]))


def test_index_rejects_non_finite_and_huge():
    lat = LatticeSpec(0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf, 1e300):
        with pytest.raises(DomainError):
            lat.index(bad)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e300, -1e300, 2.0**54, 0.5, 2.0, -3.0])
def test_contains_agrees_with_index(x):
    # regression: contains raised ValueError on nan and OverflowError on inf,
    # and held 1e300, which index rejects; prob inherited all three
    lat = LatticeSpec(0.0, 1.0)
    try:
        k = lat.index(x)
    except DomainError:
        k = None
    assert lat.contains(x) == (k is not None)
    d = EmpiricalDistribution(lat, {2.0: 0.25, -3.0: 0.75})
    assert d.prob(x) == {2.0: 0.25, -3.0: 0.75}.get(x, 0.0)
