import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dppstats import HyperbolicLevel, QuadratureConfig, QuadratureFailure, variance_hyperbolic
from dppstats import quadrature
from dppstats.quadrature import SCHEMES, integrate_interval, integrate_rows

EPS = float(np.finfo(float).eps)


def scalar_gauss_legendre_doubling(f, a, b, abs_tol, rel_tol, n0, n_max):
    """Reference: node-doubling Gauss-Legendre on one interval, one call per order.

    It takes its rules from the package's ``_leggauss``, one rule per call, so
    it checks the doubling schedule and the acceptance test, not the rules.
    Returns (value, error_estimate, converged); the estimate is the
    difference between the last two refinements.
    """
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    x, w, _ = quadrature._leggauss((n0,))
    prev = half * float(np.dot(w, f(mid + half * x)))
    n = 2 * n0
    err = math.inf
    while n <= n_max:
        x, w, _ = quadrature._leggauss((n,))
        cur = half * float(np.dot(w, f(mid + half * x)))
        err = abs(cur - prev)
        if err <= max(abs_tol, rel_tol * abs(cur)):
            return cur, err, True
        prev = cur
        n *= 2
    return prev, err, False


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.scheme in SCHEMES
        assert cfg.rel_tol == 1e-9 and cfg.abs_tol == 1e-12
        assert [f.name for f in dataclasses.fields(cfg)] == ["scheme", "rel_tol", "abs_tol"]

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(scheme="simpson")
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                QuadratureConfig(rel_tol=bad)
            with pytest.raises(ValueError):
                QuadratureConfig(abs_tol=bad)

    def test_tolerance_combination(self):
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
        assert cfg.tolerance(0.0) == 1e-10
        assert cfg.tolerance(1.0) == 1e-6
        # as max(abs_tol, rel_tol |scale|): abs_tol for a nan scale
        assert cfg.tolerance(-2.0) == 2e-6 and cfg.tolerance(math.inf) == math.inf
        assert cfg.tolerance(math.nan) == 1e-10

    def test_immutability(self):
        cfg = QuadratureConfig()
        with pytest.raises(AttributeError):
            cfg.rel_tol = 1.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_label_runs_the_one_engine(self, scheme):
        # a scheme name is a label: interval (with breakpoints, and reversed),
        # rows and a disc variance give the default's value and error, bit for bit
        tol = dict(rel_tol=1e-11, abs_tol=1e-13)
        cfg, default = QuadratureConfig(scheme=scheme, **tol), QuadratureConfig(**tol)

        def f(x):
            return np.sqrt(x + 1e-3) * np.cos(3.0 * x)

        for a, b, cuts in [(0.0, 2.0, ()), (0.0, 2.0, (0.5, 1.2)), (2.0, 0.0, (0.5,))]:
            assert integrate_interval(f, a, b, cfg, cuts) == integrate_interval(
                f, a, b, default, cuts)
        freq = np.array([1.0, 2.0, 5.0])

        def g(x, k):
            return np.sin(freq[k] * x)

        for got, want in zip(integrate_rows(g, 0.0, np.arange(3.0), cfg),
                             integrate_rows(g, 0.0, np.arange(3.0), default)):
            np.testing.assert_array_equal(got, want)
        level = HyperbolicLevel(1.6, 1)
        assert variance_hyperbolic(level, 0.7, cfg) == variance_hyperbolic(level, 0.7, default)


class TestIntegrateInterval:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_polynomial(self, scheme):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        val, err = integrate_interval(lambda x: x * x, 0.0, 1.0, cfg)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert err >= 0.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sine_with_breakpoint(self, scheme):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        val, _ = integrate_interval(np.sin, 0.0, math.pi, cfg, breakpoints=(1.0,))
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_kinked_integrand_with_breakpoint(self):
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        val, _ = integrate_interval(lambda x: np.abs(x - 0.5), 0.0, 1.0, cfg,
                                    breakpoints=(0.5,))
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_empty_interval(self):
        assert integrate_interval(np.sin, 1.0, 1.0, QuadratureConfig()) == (0.0, 0.0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("breakpoints", [(), (0.25,)])
    def test_reversed_interval_is_signed(self, scheme, breakpoints):
        # from 1 to 0 is minus the integral from 0 to 1, as for a row of integrate_rows
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        val, err = integrate_interval(lambda x: x, 1.0, 0.0, cfg, breakpoints)
        assert val == pytest.approx(-0.5, rel=1e-12) and err >= 0.0
        row, _, _, _ = integrate_rows(lambda x, rows: x, 1.0, 0.0, cfg)
        assert row[0] == pytest.approx(-0.5, rel=1e-12)
        forward, _ = integrate_interval(lambda x: x, 0.0, 1.0, cfg, breakpoints)
        assert val == -forward

    @pytest.mark.parametrize("f", [lambda x: x, np.exp, np.sin, lambda x: np.sqrt(x + 1.1),
                                   lambda x: 1.0 / (1.5 - x)],
                             ids=["x", "exp", "sin", "sqrt", "pole"])
    @pytest.mark.parametrize("cuts", [0, 1, 2])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.5), (0.3, 1.4)])
    def test_reversed_interval_is_the_negated_forward_one(self, f, cuts, a, b):
        # bit for bit, value and error: the reversed interval sums the pieces
        # of the forward one (summing the mirrored nodes missed by an ulp)
        breakpoints = (a + 0.3 * (b - a), a + 0.7 * (b - a))[:cuts]
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        val, err = integrate_interval(f, a, b, cfg, breakpoints)
        assert integrate_interval(f, b, a, cfg, breakpoints) == (-val, err)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_nan_raises(self, small_budget, a, b):
        # a nan estimate is never within tolerance: the call raises, it does not
        # hand the nan back
        small_budget(8, 64)

        def f(x):
            return np.where(x > 0.7, np.nan, x)

        with pytest.raises(QuadratureFailure, match="nan exceeds"):
            integrate_interval(f, a, b, QuadratureConfig())
        with pytest.raises(QuadratureFailure, match="nan exceeds"):
            integrate_interval(f, a, b, QuadratureConfig(), breakpoints=(0.5,))

    def test_strict_failure_raises(self, small_budget):
        # integrable endpoint-interior singularity defeats plain Gauss-Legendre
        small_budget(8, 64)
        cfg = QuadratureConfig(scheme="gauss_legendre_fixed",
                               rel_tol=1e-13, abs_tol=1e-15)
        with pytest.raises(QuadratureFailure):
            integrate_interval(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, cfg)

    def test_failing_prefix_raises_although_the_total_meets_its_tolerance(self, small_budget):
        # the first piece runs out of nodes with an error far above its own
        # tolerance but below that of the large total; the prefix decides
        small_budget(8, 64)
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-15)

        def f(x):
            return np.where(x < 1.0, 1e-3 / np.sqrt(np.abs(x - 0.3)), 1e3)

        val, err, ok, _ = integrate_rows(lambda x, rows: f(x), np.array([0.0, 1.0]),
                                         np.array([1.0, 2.0]), cfg)
        assert not ok[0] and ok[1]
        assert cfg.tolerance(val[0]) < err[0] and err.sum() < cfg.tolerance(val.sum())
        with pytest.raises(QuadratureFailure, match=r"exceeds tolerance .* on \[0.0, 2.0\]"):
            integrate_interval(f, 0.0, 2.0, cfg, breakpoints=(1.0,))

    def test_pieces_share_one_call_per_doubling_level(self):
        # three pieces of sqrt(x + a) + sqrt(3 + b - x): the end pieces, near the
        # branch points, refine past the first pair of rules (64 and 128 nodes,
        # one call), the first longest; each level is one call on the 1-D nodes
        # of every active piece, piece after piece
        calls = []
        a, b = 3e-4, 3e-3

        def f(x):
            calls.append((np.shape(x), np.floor(x[::64]).astype(int).tolist()))
            return np.sqrt(x + a) + np.sqrt(3.0 + b - x)

        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        val, err = integrate_interval(f, 0.0, 3.0, cfg, breakpoints=(2.0, 1.0, 5.0))
        exact = 2.0 / 3.0 * ((3.0 + a) ** 1.5 - a ** 1.5 + (3.0 + b) ** 1.5 - b ** 1.5)
        assert val == pytest.approx(exact, rel=1e-12)
        assert [shape for shape, _ in calls] == [(576,), (512,), (512,)]
        # the piece of every 64th node: all three, then the end pieces, then the first
        assert [sorted(set(pieces)) for _, pieces in calls] == [[0, 1, 2], [0, 2], [0]]
        assert err >= (2 * 512 + 16) * EPS * val      # the rounding of the 512-node rule

    def test_pieces_sum_as_rows_of_integrate_rows(self):
        # the pieces' values and errors are the rows of integrate_rows, bit for
        # bit: their prefix sums, in increasing order, make the interval's result
        def f(x):
            return np.sqrt(x + 3e-4) + np.cos(3.0 * x)

        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        cuts = np.array([0.0, 1.0, 2.0, 3.0])
        val, err = integrate_interval(f, 0.0, 3.0, cfg, breakpoints=(2.0, 1.0))
        pieces, piece_errs, ok, nodes = integrate_rows(lambda x, k: f(x), cuts[:-1], cuts[1:],
                                                       cfg)
        total = pieces[0] + pieces[1] + pieces[2]
        # the rounding bound of the largest rule integrate_rows reports
        rounding = EPS * (2.0 * nodes.max() + 16.0) * abs(total)
        assert (val, err) == (total, piece_errs[0] + piece_errs[1] + piece_errs[2] + rounding)
        assert nodes.max() > 2 * quadrature._GL_FIRST_NODES and ok.all()

    def test_node_block_caps_every_call(self, monkeypatch):
        # with a block smaller than the pieces' nodes, a level takes one call per
        # block of whole pieces, and the result does not move
        def run():
            sizes = []

            def f(x):
                sizes.append(x.size)
                return np.sqrt(x + 3e-4) + np.sqrt(3.003 - x)

            cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
            return integrate_interval(f, 0.0, 3.0, cfg, breakpoints=(1.0, 2.0)), sizes

        whole, sizes = run()
        assert sizes[0] == 3 * 192
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 400)
        split, sizes_c = run()
        assert split == whole
        # the first level's three pieces of 192 nodes take two calls; a piece
        # wider than the block (512 nodes and up) is called alone, never split
        assert sizes_c[:2] == [384, 192] and len(sizes_c) > len(sizes)
        assert all(size <= 400 or size in (512, 1024, 2048, 4096, 8192) for size in sizes_c)

    def test_error_carries_the_rounding_of_the_largest_rule(self):
        # x^2 on [0, 1] converges at the 128-node rule: the error is the difference
        # of the 64- and 128-node sums plus that rule's rounding bound, and the
        # reversed interval gives exactly (-value, error)
        cfg = QuadratureConfig()
        val, err = integrate_interval(lambda x: x * x, 0.0, 1.0, cfg)
        row, row_err, _, row_nodes = integrate_rows(lambda x, k: x * x, 0.0, 1.0, cfg)
        assert row_nodes[0] == 128 and val == row[0] == pytest.approx(1.0 / 3.0, rel=2 * EPS)
        assert err == row_err[0] + (2 * 128 + 16) * EPS * val
        assert integrate_interval(lambda x: x * x, 1.0, 0.0, cfg) == (-val, err)
        # the weights of every rule sum to exactly 2, so for a constant the two
        # sums agree and the error is the rounding bound alone
        assert integrate_interval(np.ones_like, 0.0, 1.0, cfg) == (1.0, (2 * 128 + 16) * EPS)


def _smooth(c):
    """c0 exp(c1 x) + sin(c2 x + c3) / (1 + c4^2 x^2): entire but for the poles at +-i/c4."""
    def f(x):
        return c[0] * np.exp(c[1] * x) + np.sin(c[2] * x + c[3]) / (1.0 + c[4] ** 2 * x * x)
    return f


PIECES = dict(coef=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
              a=st.floats(-2.0, 2.0), width=st.floats(1e-3, 4.0),
              fractions=st.lists(st.floats(0.0, 1.0), max_size=3))


class TestIntegrateIntervalProperties:
    @settings(max_examples=80, deadline=None)
    @given(**PIECES, log_rel_tol=st.floats(-13.0, -6.0))
    def test_pieces_are_ordered_prefix_sums_of_integrate_rows(self, coef, a, width, fractions,
                                                              log_rel_tol):
        # 1-4 pieces: the value is the rows' values summed in increasing order and
        # the error their errors plus the rounding of the largest rule, bit for bit;
        # from b to a both are (-value, error)
        f, b = _smooth(coef), a + width
        breakpoints = [a + t * width for t in fractions]
        cfg = QuadratureConfig(rel_tol=10.0 ** log_rel_tol, abs_tol=1e-12)
        cuts = np.array([a, *sorted({p for p in breakpoints if a < p < b}), b])
        rows, row_errs, ok, nodes = integrate_rows(lambda x, k: f(x), cuts[:-1], cuts[1:], cfg)
        assume(ok.all())
        total = err = 0.0
        for v, e in zip(rows.tolist(), row_errs.tolist()):
            total += v
            err += e
        want = (total, err + EPS * (2.0 * nodes.max() + 16.0) * abs(total))
        assert integrate_interval(f, a, b, cfg, breakpoints) == want
        assert integrate_interval(f, b, a, cfg, breakpoints) == (-want[0], want[1])

    @settings(max_examples=40, deadline=None)
    @given(**PIECES, where=st.floats(0.05, 0.95))
    def test_nan_integrand_raises(self, coef, a, width, fractions, where):
        # nan past a point inside the interval reaches some piece's sums
        smooth, b = _smooth(coef), a + width
        breakpoints = [a + t * width for t in fractions]

        def f(x):
            return np.where(x > a + where * width, np.nan, smooth(x))

        for lo, hi in ((a, b), (b, a)):
            with pytest.raises(QuadratureFailure, match="nan exceeds"):
                integrate_interval(f, lo, hi, QuadratureConfig(), breakpoints)


class TestCertify:
    CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)

    def test_error_at_the_tolerance_passes(self):
        for value in (0.0, 1e-6, -2.0, 5.0):
            tol = self.CFG.tolerance(value)
            assert quadrature._certify(value, tol, self.CFG, "at {}", value) == tol

    @pytest.mark.parametrize("value, error", [
        (math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan),
        (1.0, math.nextafter(1e-9, math.inf)), (0.0, math.nextafter(1e-12, math.inf))])
    def test_non_finite_value_nan_error_or_one_ulp_over_raises(self, value, error):
        with pytest.raises(QuadratureFailure, match=r"exceeds tolerance .* at x=7$"):
            quadrature._certify(value, error, self.CFG, "at x={}", 7)

    def test_message_is_formatted_only_on_failure(self):
        class Fields:
            def __format__(self, spec):
                raise AssertionError("formatted on success")

        assert quadrature._certify(1.0, 0.0, self.CFG, "{}", Fields()) == 0.0


class TestIntegrateRows:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rows_match_one_interval_calls(self, scheme):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        freq = np.array([1.0, 2.0, 5.0, 9.0])
        hi = np.array([0.5, 1.0, 2.0, 3.0])
        val, err, ok, _ = integrate_rows(lambda x, k: np.sin(freq[k] * x), 0.0, hi, cfg)
        assert ok.all() and (err >= 0.0).all()
        for k in range(freq.size):
            ref, _ = integrate_interval(lambda x: np.sin(freq[k] * x), 0.0, hi[k], cfg)
            assert val[k] == pytest.approx(ref, rel=1e-10)
            assert val[k] == pytest.approx((1 - math.cos(freq[k] * hi[k])) / freq[k],
                                           rel=1e-10)

    def test_gauss_legendre_rows_follow_the_scalar_doubling(self, small_budget):
        # same nodes, same acceptance test: value, error and flag per row agree
        # with the one-interval reference to rounding
        small_budget(32, 256)
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        shift = np.array([1e-4, 0.3, 1.0])
        val, err, ok, _ = integrate_rows(lambda x, k: 1.0 / (x + shift[k]), 0.0,
                                         np.ones(shift.size), cfg)
        for k in range(shift.size):
            v, e, c = scalar_gauss_legendre_doubling(
                lambda x: 1.0 / (x + shift[k]), 0.0, 1.0, cfg.abs_tol, cfg.rel_tol,
                quadrature._GL_FIRST_NODES, quadrature._GL_MAX_NODES)
            assert val[k] == pytest.approx(v, rel=1e-14)
            assert err[k] == pytest.approx(e, rel=1e-6, abs=1e-15)
            assert ok[k] == c
        assert not ok[0] and ok[2]                 # the nearly singular row runs out

    def test_converged_row_leaves_the_active_set(self):
        # row 0 (a cubic) converges at the first comparison, 64 against 128
        # nodes in one call of 192; row 1 keeps doubling and must not drag
        # row 0 along
        seen = []

        def f(x, rows):
            seen.append((x.shape[1], rows.ravel().tolist()))
            return np.where(rows == 0, x ** 3, np.sqrt(x + 1e-3))

        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        val, _, ok, nodes = integrate_rows(f, 0.0, np.ones(2), cfg)
        assert ok[0] and val[0] == pytest.approx(0.25, rel=1e-14)
        assert seen == [(192, [0, 1]), (256, [1])]
        assert nodes.tolist() == [128, 256]

    @pytest.mark.parametrize("keys", [range(3), [1]], ids=["three_pieces", "one_piece"])
    def test_first_call_holds_the_first_two_rules(self, keys):
        # the sums of the one call on the concatenated 64 + 128 nodes equal
        # those of separate 64- and 128-node calls, bit for bit, on several
        # pieces (one array) and on one (the path on floats)
        pieces = [(0.5, 0.5), (1.5, 0.5), (3.0, 1.0)]
        shift = np.array([1e-3, 0.3, 2.0])

        def f(x, keys):
            return (1.0 / (x.reshape(len(keys), -1) + shift[keys, None])).ravel()

        merged = quadrature._piece_sums(f, pieces, keys, (64, 128))
        assert len(merged) == len(keys)
        for i, n in enumerate((64, 128)):
            alone = quadrature._piece_sums(f, pieces, keys, (n,))
            assert [sums[i] for sums in merged] == [sums[0] for sums in alone]

    def test_default_schedule_follows_the_scalar_doubling(self):
        # the merged first call changes no value, error or flag of the one-call-
        # per-order reference at the default schedule
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        shift = np.array([1e-3, 1e-2, 0.3, 1.0])
        val, err, ok, _ = integrate_rows(lambda x, k: 1.0 / (x + shift[k]), 0.0,
                                         np.ones(shift.size), cfg)
        for k in range(shift.size):
            v, e, c = scalar_gauss_legendre_doubling(
                lambda x: 1.0 / (x + shift[k]), 0.0, 1.0, cfg.abs_tol, cfg.rel_tol,
                quadrature._GL_FIRST_NODES, quadrature._GL_MAX_NODES)
            # the error is a difference of two sums, each rounded a few ulps
            # apart from the reference's dot products
            assert val[k] == pytest.approx(v, rel=1e-14)
            assert err[k] == pytest.approx(e, rel=1e-6, abs=1e-14 * abs(v))
            assert ok[k] == c
        assert ok.all()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5), st.floats(-2.0, 2.0),
        st.one_of(st.just(0.0), st.floats(-4.0, -1e-3), st.floats(1e-3, 4.0))),
        min_size=1, max_size=40), log_rel_tol=st.floats(-13.0, -6.0))
    def test_each_row_is_its_interval_alone(self, rows, log_rel_tol):
        # rows with parameters of their own, some empty (a = b) and some reversed
        # (b < a): a converged row's value is integrate_interval's of its
        # integrand alone and its error that one's less the rules' rounding, bit
        # for bit, so the row indices reach f through the reshape; an
        # unconverged row's interval raises
        def h(x, p):
            return p[0] * np.exp(p[1] * x) + np.sin(p[2] * x + p[3]) / (1.0 + p[4] * p[4] * x * x)

        coef = np.array([c for c, _, _ in rows]).T
        a = np.array([lo for _, lo, _ in rows])
        b = a + np.array([width for _, _, width in rows])
        cfg = QuadratureConfig(rel_tol=10.0 ** log_rel_tol, abs_tol=1e-12)
        val, err, ok, nodes = integrate_rows(lambda x, k: h(x, coef[:, k]), a, b, cfg)
        for i in range(len(rows)):
            f = functools.partial(h, p=coef[:, i].tolist())
            if ok[i]:
                want = integrate_interval(f, a[i], b[i], cfg)
                assert (val[i], err[i] + EPS * (2.0 * nodes[i] + 16.0) * abs(val[i])) == want
            else:
                with pytest.raises(QuadratureFailure):
                    integrate_interval(f, a[i], b[i], cfg)
        assert (nodes[a == b] == 0).all() and (nodes[a != b] >= 128).all()

    def test_empty_rows_are_zero_and_never_evaluated(self):
        seen = []

        def f(x, rows):
            seen.extend(np.ravel(rows).tolist())
            return np.ones_like(x)

        val, err, ok, nodes = integrate_rows(f, np.array([0.0, 1.0, 2.0]),
                                             np.array([0.0, 2.0, 2.0]), QuadratureConfig())
        assert val.tolist() == [0.0, 1.0, 0.0] and err[0] == err[2] == 0.0
        assert ok.all() and set(seen) == {1} and nodes.tolist() == [0, 128, 0]

    def test_node_block_caps_every_call(self, monkeypatch):
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        scale = np.linspace(0.5, 8.0, 40)

        def run():
            sizes = []

            def f(x, rows):
                sizes.append(x.size)
                return np.exp(-scale[rows] * x * x)

            return integrate_rows(f, 0.0, np.full(scale.size, 3.0), cfg), sizes

        (val, err, ok, nodes), sizes = run()
        assert max(sizes) > 512
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 512)
        (val_c, err_c, ok_c, nodes_c), sizes_c = run()
        assert max(sizes_c) <= 512 and len(sizes_c) > len(sizes)
        np.testing.assert_array_equal(val_c, val)
        np.testing.assert_array_equal(err_c, err)
        np.testing.assert_array_equal(ok_c, ok)
        np.testing.assert_array_equal(nodes_c, nodes)

    def test_row_wider_than_the_block_is_called_alone(self, monkeypatch):
        # a row is never split: with a block smaller than one row's nodes,
        # every call holds one whole row and the sums do not move
        shift = np.array([0.5, 1.0, 2.0])

        def run():
            shapes = []

            def f(x, rows):
                shapes.append(x.shape)
                return 1.0 / (x + shift[rows])

            return integrate_rows(f, 0.0, np.full(3, 4.0), QuadratureConfig()), shapes

        whole, shapes = run()
        assert shapes[0] == (3, 192)
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 100)
        alone, shapes = run()
        assert shapes[:3] == [(1, 192)] * 3 and all(s[0] == 1 for s in shapes)
        for got, want in zip(alone, whole):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("prev, cur", [
        (0.0, 1e-12), (0.0, 2e-12), (1e-3, 1e-3 + 2e-12), (1.0, 1.0 + 2.0 ** -30),
        (1.0, 1.0 + 2.0 ** -29), (math.nan, 1.0), (1.0, math.nan), (0.0, math.inf),
        (math.inf, math.inf), (1.0, -math.inf)])
    def test_acceptance_test_matches_max_form(self, monkeypatch, small_budget, prev, cur):
        # the loop accepts a step once err <= config.tolerance(value): for floats,
        # nan and inf included, that is err <= abs_tol or err <= rel_tol |value|
        small_budget(64, 128)
        monkeypatch.setattr(quadrature, "_piece_sums",
                            lambda f, pieces, keys, sizes: [[prev, cur]])
        (result,), n = quadrature._node_doubling(None, [(0.5, 0.5)], QuadratureConfig())
        err = abs(cur - prev)
        assert n == 128 and result[3] == 128
        assert result[2] == (err <= 1e-12 or err <= 1e-9 * abs(cur))


class TestLegendreRule:
    """The package's own Gauss-Legendre rules, against exact integrals."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_mirrored_and_summing_to_two(self, n):
        x, w = quadrature._legendre_rule(n)
        assert x.shape == w.shape == (n,)
        assert (np.diff(x) > 0.0).all() and -1.0 < x[0] and x[-1] < 1.0 and (w > 0.0).all()
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        # numpy's pairwise sum, the one a constant integrand sees
        assert w.sum() == 2.0

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_high_powers_within_the_rounding_allowance(self, n):
        # x^(2n - 2) is the highest even power the rule integrates exactly; its
        # mass sits at the outermost nodes, where the weights are hardest.  The
        # callers' rounding bound is (2n + 16) eps relative
        x, w = quadrature._legendre_rule(n)
        for p in (n, 2 * n - 2):
            exact = 2.0 / (p + 1)
            assert abs(float(np.sum(w * x ** p)) - exact) <= (2 * n + 16) * EPS * exact

    def test_rules_are_cached_per_call_shape(self):
        x, w, rules = quadrature._leggauss((64, 128))
        assert quadrature._leggauss((64, 128))[0] is x
        for rule, n in zip(rules, (64, 128)):
            np.testing.assert_array_equal(x[rule], quadrature._legendre_rule(n)[0])
            np.testing.assert_array_equal(w[rule], quadrature._legendre_rule(n)[1])
