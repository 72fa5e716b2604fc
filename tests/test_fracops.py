import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import DomainError, GridFunction, TWO_PI
from fracspec import fracops
from fracspec.verify import DEFAULT_H_GRID


def _power_fn(mu: float, num_points: int) -> GridFunction:
    return GridFunction(np.linspace(0.0, TWO_PI, num_points) ** mu)


def _brute_modulus(g: GridFunction, h: float) -> float:
    """Oracle: scan every pair offset k <= h / spacing (on the circle if periodic)."""
    v = g.values
    kmax = int(np.floor(h / g.spacing + 1e-9))
    best = 0.0
    if g.periodic:
        circle = v[:-1]
        for k in range(1, min(kmax, circle.size // 2) + 1):
            best = max(best, float(np.max(np.abs(circle - np.roll(circle, k)))))
    else:
        for k in range(1, min(kmax, v.size - 1) + 1):
            best = max(best, float(np.max(np.abs(v[k:] - v[:-k]))))
    return best


class TestFracIntegral:
    def test_power_rule_constant(self):
        # I^0.5[1](1) = x^0.5 / Gamma(1.5)
        g = GridFunction(np.ones(8193))
        out = fracops.frac_integral(g, 0.5)
        exact = 1.0 / math.gamma(1.5)
        assert np.interp(1.0, out.grid, out.values) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.75])
    def test_power_rule_general(self, mu, beta):
        # I^beta[t^mu](x) = Gamma(mu+1)/Gamma(mu+beta+1) x^(mu+beta)
        g = _power_fn(mu, 8193)
        out = fracops.frac_integral(g, beta)
        x = math.pi
        exact = math.gamma(mu + 1) / math.gamma(mu + beta + 1) * x ** (mu + beta)
        assert np.interp(x, out.grid, out.values) == pytest.approx(exact, rel=1e-4)

    def test_order_one_is_cumulative_trapezoid(self):
        rng = np.random.default_rng(3)
        g = GridFunction(rng.standard_normal(513))
        out = fracops.frac_integral(g, 1.0)
        lam = g.grid
        expected = np.concatenate(
            ([0.0], np.cumsum((g.values[:-1] + g.values[1:]) / 2) * g.spacing)
        )
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
        assert out.values[0] == 0.0
        assert lam[-1] == pytest.approx(TWO_PI)

    def test_semigroup_property(self):
        g = GridFunction(np.sin(np.linspace(0.0, TWO_PI, 4097)))
        once = fracops.frac_integral(fracops.frac_integral(g, 0.3), 0.4)
        direct = fracops.frac_integral(g, 0.7)
        assert np.max(np.abs(once.values - direct.values)) < 1e-5

    def test_rejects_bad_order(self):
        g = GridFunction(np.ones(16))
        for order in (0.0, 1.5, -0.1):
            with pytest.raises(DomainError):
                fracops.frac_integral(g, order)

    @pytest.mark.parametrize("order", [0.5, 0.75, 0.99])
    @pytest.mark.parametrize("num_points", [2, 3, 17, 513, 514])
    def test_matches_direct_convolution(self, num_points, order):
        # oracle: the product-integration sum with its convolution done
        # directly by np.convolve, on small grids and on both sides of 513
        # points; exponential data, like periodogram ordinates, are positive
        g = GridFunction(np.random.default_rng(num_points).exponential(size=num_points))
        n, h, v, gamma = num_points, g.spacing, g.values, order + 1.0
        central = fracops._central_weights(gamma, np.arange(1, n - 1))
        left = fracops._left_weights(gamma, np.arange(1, n))
        head = np.convolve(np.concatenate(([1.0], central)), v[1:])[: n - 1]
        expected = np.concatenate(
            ([0.0], h**order / math.gamma(order + 2.0) * (left * v[0] + head))
        )
        np.testing.assert_allclose(fracops.frac_integral(g, order).values, expected, rtol=1e-12)

    def test_fft_length_is_the_fast_real_length(self):
        # the padded convolution length is scipy's 5-smooth choice, so default
        # grids of non-power-of-two n (4n + 1 points) keep the FFT size that
        # fftconvolve used: 2 * 6001 - 3 pads to 12000, not 16384. The last
        # four are the full-grid lengths of the 65,537- and 8,193-point grids
        # and the phase-split lengths 2P - 1 of P = 4,096 and 8,192 outputs
        from scipy.fft import next_fast_len

        targets = [
            *range(1, 5001), 2 * 4101 - 3, 2 * 6001 - 3, 2 * 65537 - 3, 2 * 8193 - 3,
            2 * 4096 - 1, 2 * 8192 - 1,
        ]
        assert [fracops._fft_length(t) for t in targets] == [
            next_fast_len(t, real=True) for t in targets
        ]
        assert fracops._fft_length(2 * 6001 - 3) == 12000

    @given(order=st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_preserves_nonnegativity_and_linearity(self, order):
        v = np.abs(np.sin(np.linspace(0, TWO_PI, 257))) + 0.1
        out = fracops.frac_integral(GridFunction(v), order)
        assert np.all(out.values >= -1e-12)
        doubled = fracops.frac_integral(GridFunction(2 * v), order)
        np.testing.assert_allclose(doubled.values, 2 * out.values, rtol=1e-12)

    @given(
        c0=st.floats(-1e3, 1e3, allow_subnormal=False),
        c1=st.floats(-1e3, 1e3, allow_subnormal=False),
        beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        num_points=st.integers(3, 5000),
    )
    @settings(max_examples=40, deadline=None)
    @example(c0=0.0, c1=1.881233020756414e-76, beta=0.5269248413515522, num_points=4757)
    def test_exact_on_linear_data(self, c0, c1, beta, num_points):
        # I^beta[c0 + c1 t](x) = c0 x^beta / Gamma(beta+1) + c1 x^(beta+1) / Gamma(beta+2);
        # the tolerance is relative to |first term| + |second term|, which
        # stays meaningful where the two cancel. The example is small near
        # x = 0, where an FFT convolution's rounding error (set by the largest
        # output) once exceeded it at the second grid point
        x = np.linspace(0.0, TWO_PI, num_points)
        out = fracops.frac_integral(GridFunction(c0 + c1 * x), beta).values
        t0 = c0 * x**beta / math.gamma(beta + 1.0)
        t1 = c1 * x ** (beta + 1.0) / math.gamma(beta + 2.0)
        assert np.all(np.abs(out - (t0 + t1)) <= 1e-10 * (np.abs(t0) + np.abs(t1)))


class TestStridedIntegral:
    @given(
        num_out=st.integers(1, 64),
        step=st.integers(1, 64),
        order=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(num_out=64, step=64, order=0.75, seed=0)  # P^2 = N - 1: blocked product
    @example(num_out=65, step=64, order=0.75, seed=0)  # P^2 > N - 1: phase-split FFT
    def test_matches_full_grid_slice(self, num_out, step, order, seed):
        # P = num_out outputs past x = 0 on N = P step + 1 points; the blocked
        # product serves P <= step (P^2 <= N - 1), the phase-split FFT the rest.
        # Positive data with v[0] != 0, like periodogram ordinates
        v = 0.1 + np.random.default_rng(seed).exponential(size=num_out * step + 1)
        g = GridFunction(v)
        out = fracops.frac_integral(g, order, step)
        assert out.num_points == num_out + 1
        full = fracops.frac_integral(g, order).values[::step]
        np.testing.assert_allclose(out.values, full, rtol=1e-12)

    @pytest.mark.parametrize(
        "num_points, step", [(65537, 16), (65537, 8), (65537, 128), (4097, 4), (3001, 3)]
    )
    @pytest.mark.parametrize("order", [0.51, 0.75, 0.99])
    def test_phase_split_matches_full_grid_oracle(self, num_points, step, order):
        # P^2 > N - 1 in every case, P = 1000 for the 3001-point grid: the
        # phase-split FFT, against every step-th point of the full-grid FFT.
        # Periodogram-like data: positive, even, with v[0] != 0
        p = (num_points - 1) // step
        assert p * p > num_points - 1
        half = 0.1 + np.random.default_rng(num_points + step).exponential(size=num_points // 2 + 1)
        g = GridFunction(np.concatenate((half, half[-2::-1])))
        full = fracops.frac_integral(g, order).values[::step]
        out = fracops.frac_integral(g, order, step).values
        assert out.size == p + 1
        np.testing.assert_allclose(out, full, rtol=0, atol=1e-14 * np.max(full))

    @pytest.mark.parametrize(
        "order, n, step", [(0.75, 65537, 1024), (0.51, 4097, 64), (0.99, 16385, 128)]
    )
    def test_block_weights_match_one_shot_construction(self, order, n, step):
        # built by row blocks, the weight matrix holds the same bits as the
        # reversed rows of the whole weight vector; at the band's 65,537
        # points the build used to peak at 3.1 MiB beside a 0.5 MiB matrix
        a = np.concatenate(([1.0], fracops._central_weights(order + 1.0, np.arange(1, n - 1))))
        tracemalloc.start()
        try:
            blocks = fracops._block_weights.__wrapped__(order, n, step)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(blocks, a.reshape(-1, step)[:, ::-1])
        if n == 65537:
            assert peak < 2**20

    def test_order_one_slices_the_trapezoid(self):
        g = GridFunction(np.random.default_rng(1).exponential(size=257))
        out = fracops.frac_integral(g, 1.0, 16)
        assert np.array_equal(out.values, fracops.frac_integral(g, 1.0).values[::16])

    def test_whole_float_step_is_the_int_step(self):
        # 2.0 used to fail in numpy with an AttributeError
        g = GridFunction(np.random.default_rng(2).exponential(size=257))
        got = fracops.frac_integral(g, 0.75, 2.0)
        assert np.array_equal(got.values, fracops.frac_integral(g, 0.75, 2).values)

    @pytest.mark.parametrize("step", [0, -4, 3, 512])
    def test_rejects_step_not_dividing_the_grid(self, step):
        message = "step must divide 256" if step > 0 else f"step must be at least 1, got {step}"
        with pytest.raises(DomainError, match=message):
            fracops.frac_integral(GridFunction(np.ones(257)), 0.5, step)


def _uncached_frac_integral(v: np.ndarray, order: float) -> np.ndarray:
    """Oracle: the product-integration sum with the weights rebuilt on every
    call and both spectra multiplied as temporaries, weights first; the first
    _DIRECT_POINTS outputs are summed directly."""
    n, gamma = v.size, order + 1.0
    a = np.concatenate(([1.0], fracops._central_weights(gamma, np.arange(1, n - 1))))
    b = fracops._left_weights(gamma, np.arange(1, n))
    size = fracops._fft_length(2 * n - 3)
    conv = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(v[1:], size), size)[: n - 1]
    k = min(fracops._DIRECT_POINTS, n - 1)
    conv[:k] = np.convolve(a[:k], v[1 : k + 1])[:k]
    scale = (TWO_PI / (n - 1)) ** order / math.gamma(order + 2.0)
    return np.concatenate(([0.0], scale * (b * v[0] + conv)))


def _old_central_weights(gamma: float, k: np.ndarray) -> np.ndarray:
    """_central_weights before it held a[0] = 1: the formula at every k, which
    its callers kept at k >= 1 and then set a[0] = 1 by hand."""
    out = np.empty(k.size)
    small = k < fracops._SERIES_CUTOFF
    ks = k[small].astype(float)
    out[small] = (ks + 1.0) ** gamma - 2.0 * ks**gamma + (ks - 1.0) ** gamma
    kl = k[~small].astype(float)
    x2 = 1.0 / kl**2
    acc = np.zeros_like(kl)
    for m in range(fracops._SERIES_TERMS, 0, -1):
        acc = x2 * (acc + 2.0 * fracops._binom(gamma, 2 * m))
    out[~small] = kl**gamma * acc
    return out


class TestCentralWeights:
    def test_first_weight_is_one_without_the_power_formula(self):
        # (k+1)^g - 2 k^g + (k-1)^g is nan at k = 0 for a non-integer g
        with np.errstate(invalid="raise"):
            a = fracops._central_weights(1.75, np.arange(20))
        assert a[0] == 1.0
        assert np.array_equal(a[1:], _old_central_weights(1.75, np.arange(1, 20)))

    def test_every_caller_keeps_the_bits_of_its_own_first_weight(self, monkeypatch):
        gamma = 1.75
        # the full grid: a[0] = 1 prepended
        a = np.concatenate(([1.0], _old_central_weights(gamma, np.arange(1, 8192))))
        size = fracops._fft_length(2 * 8193 - 3)
        a_hat, a_head, _, got_size = fracops._product_weights(0.75, 8193)
        assert got_size == size
        assert np.array_equal(a_hat, np.fft.rfft(a, size))
        assert np.array_equal(a_head, a[: fracops._DIRECT_POINTS])
        # the blocked product: the weight at max(k, 1), then a[0] set in the matrix
        blocks = _old_central_weights(gamma, np.maximum(np.arange(65536), 1))
        blocks = blocks.reshape(-1, 1024)[:, ::-1].copy()
        blocks[0, -1] = 1.0
        assert np.array_equal(fracops._block_weights(0.75, 65537, 1024)[0], blocks)
        # the phase split: its weights and its direct head, built as they were
        g = GridFunction(0.1 + np.random.default_rng(8).exponential(size=65537))
        got = fracops.frac_integral(g, 0.75, 8).values
        monkeypatch.setattr(
            fracops, "_central_weights",
            lambda gamma, k: np.where(k == 0, 1.0, _old_central_weights(gamma, np.maximum(k, 1))),
        )
        assert np.array_equal(got, fracops.frac_integral(g, 0.75, 8).values)


class TestWeightCache:
    @pytest.mark.parametrize("order", [0.5, 0.75, 0.99])
    @pytest.mark.parametrize("num_points", [513, 4097, 8193, 16385, 65537])
    def test_bitwise_equal_to_uncached(self, num_points, order):
        # the first call fills the cache, the second reads it
        v = np.random.default_rng(num_points).exponential(size=num_points)
        expected = _uncached_frac_integral(v, order)
        for _ in range(2):
            assert np.array_equal(fracops.frac_integral(GridFunction(v), order).values, expected)

    def test_cached_arrays_are_read_only(self):
        a_hat, a_head, b, _ = fracops._product_weights(0.75, 513)
        for arr in (a_hat, a_head, b):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_never_aliases_caller_data(self):
        rng = np.random.default_rng(5)
        v1 = rng.exponential(size=513)
        v2 = v1.copy()
        v2[7] *= 3.0
        a_hat, _, b, _ = fracops._product_weights(0.75, 513)
        a_copy, b_copy = a_hat.copy(), b.copy()
        g1, g2 = GridFunction(v1), GridFunction(v2)
        out1 = fracops.frac_integral(g1, 0.75)
        out2 = fracops.frac_integral(g2, 0.75)
        assert fracops._product_weights(0.75, 513)[0] is a_hat
        assert np.array_equal(out1.values, _uncached_frac_integral(v1, 0.75))
        assert np.array_equal(out2.values, _uncached_frac_integral(v2, 0.75))
        assert np.array_equal(a_hat, a_copy) and np.array_equal(b, b_copy)
        for arr in (g1.values, g2.values, out1.values, out2.values):
            assert not np.shares_memory(arr, a_hat) and not np.shares_memory(arr, b)


class TestFracDerivative:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_abel_inversion(self, alpha):
        g = GridFunction(np.sin(np.linspace(0.0, TWO_PI, 4096)))
        recon = fracops.frac_derivative(fracops.frac_integral(g, alpha), alpha)
        interior = slice(4, -4)
        err = np.max(np.abs(recon.values[interior] - g.values[interior]))
        assert err < 1e-3

    def test_derivative_of_constant(self):
        # D^0.3[1](1) = 1^(-0.3) / Gamma(0.7)
        g = GridFunction(np.ones(8193))
        out = fracops.frac_derivative(g, 0.3)
        exact = 1.0 / math.gamma(0.7)
        assert np.interp(1.0, out.grid, out.values) == pytest.approx(exact, rel=1e-3)

    def test_derivative_of_matching_power(self):
        # D^0.3[t^0.3](x) = Gamma(1.3) for every x > 0
        g = _power_fn(0.3, 8193)
        out = fracops.frac_derivative(g, 0.3)
        assert np.interp(3.0, out.grid, out.values) == pytest.approx(math.gamma(1.3), rel=1e-3)


class TestModulus:
    def test_linear_function(self):
        g = GridFunction(np.linspace(0, TWO_PI, 513))
        h = 0.5
        # grid-resolved window: largest multiple of the spacing inside h
        resolved = int(h / g.spacing) * g.spacing
        assert fracops.modulus_of_continuity(g, h) == pytest.approx(resolved, rel=1e-12)

    def test_monotone_in_h(self):
        rng = np.random.default_rng(8)
        g = GridFunction(np.cumsum(rng.standard_normal(1025)) * 0.05)
        hs = [0.05, 0.1, 0.2, 0.4]
        vals = [fracops.modulus_of_continuity(g, h) for h in hs]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_profile_matches_scalar(self):
        rng = np.random.default_rng(9)
        g = GridFunction(np.cumsum(rng.standard_normal(513)) * 0.1)
        hs = np.array([0.1, 0.3, 0.7])
        prof = fracops.modulus_profile(g, hs)
        for h, v in zip(hs, prof):
            assert v == fracops.modulus_of_continuity(g, h)

    @given(
        size=st.integers(2, 700),
        log_scale=st.floats(-3.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_offset_oracle(self, size, log_scale, seed, fractions):
        # random walk; windows from one grid spacing up to 2*pi
        rng = np.random.default_rng(seed)
        v = np.cumsum(rng.standard_normal(size)) * 10.0**log_scale
        g = GridFunction(v)
        hs = np.minimum([g.spacing + f * (TWO_PI - g.spacing) for f in fractions], TWO_PI)
        expected = np.array([_brute_modulus(g, h) for h in hs])
        assert np.array_equal(fracops.modulus_profile(g, hs), expected)
        scalar = np.array([fracops.modulus_of_continuity(g, h) for h in hs])
        assert np.array_equal(scalar, expected)
        closed = v.copy()
        closed[-1] = closed[0]
        ring = GridFunction(closed, periodic=True)
        periodic = np.array([fracops.modulus_of_continuity(ring, h) for h in hs])
        assert np.array_equal(periodic, [_brute_modulus(ring, h) for h in hs])

    def test_profile_holds_few_grid_arrays(self):
        # mc takes the moduli of each replication on up to 8,193 points; a
        # sparse table of running extrema used to peak at 22.5 grid arrays
        g = GridFunction(np.cumsum(np.random.default_rng(10).standard_normal(8193)))
        h_grid = np.array(DEFAULT_H_GRID)
        tracemalloc.start()
        try:
            fracops.modulus_profile(g, h_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * g.values.nbytes

    def test_rejects_h_below_spacing(self):
        g = GridFunction(np.ones(65))
        with pytest.raises(DomainError):
            fracops.modulus_of_continuity(g, g.spacing / 10)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda g: fracops.frac_derivative(g, 0.0),
            "frac_derivative order must be in (0, 1), got 0.0",
        ),
        (
            lambda g: fracops.frac_derivative(g, 1.0),
            "frac_derivative order must be in (0, 1), got 1.0",
        ),
        (lambda g: fracops.modulus_of_continuity(g, 7.0), "modulus window h=7.0 exceeds 2*pi"),
        (
            lambda g: fracops.modulus_profile(g, np.array([g.spacing / 10, 1.0])),
            "modulus window h=0.009817477042468103 below grid spacing 0.09817477042468103",
        ),
        # a window that is not finite: the profile used to return 0 for it
        *[
            (lambda g, call=call, h=h: call(g, h), f"modulus window h must be finite, got {bad!r}")
            for call in (fracops.modulus_of_continuity, fracops.modulus_profile)
            for h, bad in ((math.nan, math.nan), ([1.0, math.nan], math.nan),
                           (math.inf, math.inf), ([math.inf], math.inf))
        ],
        *[
            (lambda g, bad=bad: fracops.frac_integral(g, 0.75, bad),
             f"step must be a whole number, got {bad!r}")
            for bad in (64.7, math.nan, math.inf)
        ],
    ],
    ids=["derivative-order-0", "derivative-order-1", "modulus-above-2pi", "profile-below-spacing",
         *[f"{case}-{h}" for case in ("modulus", "profile")
           for h in ("nan", "one-nan", "inf", "one-inf")],
         "step-64.7", "step-nan", "step-inf"],
)
def test_refusals_name_the_bad_input(call, message):
    g = GridFunction(np.cos(np.linspace(0.0, TWO_PI, 65)), periodic=True)
    with pytest.raises(DomainError) as exc:
        call(g)
    assert message in str(exc.value)
