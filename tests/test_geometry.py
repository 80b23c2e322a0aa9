import cmath
import math

import numpy as np
import pytest

from dppstats import (DEFAULT_QUAD, DomainError, QuadratureConfig,
                      QuadratureFailure, euclidean_lens_complement_area, geometry, hyperbolic_distance,
                      hyperbolic_lens_integral,
                      hyperbolic_lens_integral_transformed, image_disc, mobius)

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)


def random_disc_points(rng, n, radius=0.95):
    pts = rng.uniform(-radius, radius, size=(n, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < radius]
    return pts[:, 0] + 1j * pts[:, 1]


def lens_region_grid_area(r, z_mod, n_t=3000, n_theta=3000):
    """Brute-force midpoint-grid hyperbolic area of D_r^c cap D(C, R).

    Pure indicator sum against the measure t dt dtheta / (1-t^2)^2; shares
    no formulas with the arccos evaluation under test.
    """
    disc = image_disc(z_mod, r)
    c, rad = disc.center_modulus, disc.radius
    t_lo, t_hi = max(r, disc.inner_edge), disc.outer_edge
    ts = np.linspace(t_lo, t_hi, n_t, endpoint=False) + (t_hi - t_lo) / (2 * n_t)
    thetas = np.linspace(-math.pi, math.pi, n_theta, endpoint=False) + math.pi / n_theta
    tt, hh = np.meshgrid(ts, thetas, indexing="ij")
    inside = (tt * tt + c * c - 2 * tt * c * np.cos(hh)) < rad * rad
    weights = tt / (1 - tt * tt) ** 2
    cell = (t_hi - t_lo) / n_t * (2 * math.pi / n_theta)
    return float((inside * weights[:, :]).sum() * cell)


def lens_region_theta_slice_area(r, z_mod):
    """High-accuracy oracle: hyperbolic area of D_r^c cap D(C, R).

    Integrates the radial direction exactly (antiderivative of
    t/(1-t^2)^2 is 1/(2(1-t^2))) and the angular direction numerically,
    i.e. in the opposite order to the angular-width construction under
    test.  Slice geometry comes from the quadratic |t e^{i th} - C| = R in
    t: t = c cos(th) -+ sqrt(R^2 - c^2 sin^2(th)).
    """
    from scipy import integrate as _integrate

    disc = image_disc(z_mod, r)
    c, rad = disc.center_modulus, disc.radius

    def radial_mass(theta):
        disc_root = rad * rad - (c * math.sin(theta)) ** 2
        if disc_root <= 0.0:
            return 0.0
        root = math.sqrt(disc_root)
        t_hi = c * math.cos(theta) + root
        t_lo = max(r, c * math.cos(theta) - root)
        if t_hi <= t_lo:
            return 0.0
        return 0.5 / (1 - t_hi * t_hi) - 0.5 / (1 - t_lo * t_lo)

    if c > rad:
        alpha = math.asin(rad / c)
    else:
        alpha = math.pi
    # breakpoint where the centred circle t = r enters the slice
    arg = (r * r + c * c - rad * rad) / (2 * r * c)
    points = [math.acos(arg)] if -1.0 < arg < 1.0 else None
    val, _ = _integrate.quad(radial_mass, 0.0, alpha, epsabs=1e-13,
                             epsrel=1e-11, limit=300, points=points)
    return 2.0 * val


class TestMobius:
    def test_zero_center_negates(self):
        assert mobius(0.0, 0.3 + 0.2j) == pytest.approx(-(0.3 + 0.2j))

    def test_maps_origin_to_center(self):
        w = 0.4 - 0.1j
        assert mobius(w, 0.0) == pytest.approx(w)

    def test_real_axis_hand_value(self):
        assert mobius(0.5, 0.3) == pytest.approx((0.5 - 0.3) / (1 - 0.15))
        assert mobius(0.5, 0.3) == pytest.approx(0.23529411764705882)

    def test_rotation_factor(self):
        # e^{i pi/2} * (0 - 0.5)/(1 - 0) = -0.5 i
        out = mobius(0.0, 0.5, theta=math.pi / 2)
        assert out == pytest.approx(complex(0.0, -0.5))

    def test_involution_on_random_pairs(self):
        rng = np.random.default_rng(11)
        ws = random_disc_points(rng, 1400)[:1000]
        zs = random_disc_points(rng, 1400)[:1000]
        worst = max(abs(mobius(w, mobius(w, z)) - z) for w, z in zip(ws, zs))
        assert worst < 1e-12

    def test_rotation_decomposition(self):
        # g_{w,0} = R_phi o g_{|w|,0} o R_{-phi} with phi = arg(w)
        rng = np.random.default_rng(16)
        for w, z in zip(random_disc_points(rng, 200), random_disc_points(rng, 200)):
            phi = cmath.phase(w)
            rotated = cmath.exp(1j * phi) * mobius(abs(w), cmath.exp(-1j * phi) * z)
            assert mobius(w, z) == pytest.approx(rotated, rel=1e-12, abs=1e-13)

    def test_output_stays_in_disc(self):
        rng = np.random.default_rng(12)
        for w, z in zip(random_disc_points(rng, 300), random_disc_points(rng, 300)):
            assert abs(mobius(w, z)) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mobius(1.0, 0.0)
        with pytest.raises(DomainError):
            mobius(0.0, 1.2)


class TestHyperbolicDistance:
    def test_coincident_points(self):
        assert hyperbolic_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_distance_from_origin(self):
        for rho in [0.1, 0.5, 0.9]:
            assert hyperbolic_distance(0.0, rho) == pytest.approx(math.atanh(rho), rel=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for z, w in zip(random_disc_points(rng, 200), random_disc_points(rng, 200)):
            assert hyperbolic_distance(z, w) == pytest.approx(
                hyperbolic_distance(w, z), rel=1e-13, abs=1e-15)

    def test_mobius_isometry(self):
        rng = np.random.default_rng(14)
        ws = random_disc_points(rng, 1400)[:1000]
        zs = random_disc_points(rng, 1400)[:1000]
        ys = random_disc_points(rng, 1400)[:1000]
        worst = max(
            abs(hyperbolic_distance(mobius(w, z), mobius(w, y)) - hyperbolic_distance(z, y))
            for w, z, y in zip(ws, zs, ys))
        assert worst < 1e-11

    def test_cosh_identity(self):
        z, w = 0.3 + 0.4j, -0.2 + 0.1j
        d = hyperbolic_distance(z, w)
        cosh_sq = abs(1 - z * w.conjugate()) ** 2 / ((1 - abs(z) ** 2) * (1 - abs(w) ** 2))
        assert math.cosh(d) ** 2 == pytest.approx(cosh_sq, rel=1e-12)


class TestImageDisc:
    def test_centered_case(self):
        disc = image_disc(0.0, 0.7)
        assert disc.center_modulus == 0.0
        assert disc.radius == pytest.approx(0.7)

    def test_fixed_radius_case(self):
        # the involution at |z| = r sends D_r to D(r/(1+r^2), r/(1+r^2))
        r = 0.6
        disc = image_disc(r, r)
        assert disc.center_modulus == pytest.approx(r / (1 + r * r), rel=1e-14)
        assert disc.radius == pytest.approx(r / (1 + r * r), rel=1e-14)

    def test_degenerates_toward_boundary_point(self):
        radii = [image_disc(z, 0.5).radius for z in [0.9, 0.99, 0.999, 0.99999]]
        assert all(b < a for a, b in zip(radii, radii[1:]))
        assert radii[-1] < 1e-4
        assert image_disc(0.99999, 0.5).center_modulus == pytest.approx(1.0, abs=1e-3)

    def test_edge_identities(self):
        for z in [0.05, 0.3, 0.6, 0.95]:
            for r in [0.2, 0.5, 0.9]:
                disc = image_disc(z, r)
                assert disc.inner_edge == pytest.approx(
                    abs(disc.center_modulus - disc.radius), rel=1e-12, abs=1e-15)
                assert disc.outer_edge == pytest.approx(
                    disc.center_modulus + disc.radius, rel=1e-14)
                assert disc.inner_edge == pytest.approx(abs(z - r) / (1 - z * r), rel=1e-13)
                assert disc.outer_edge == pytest.approx((z + r) / (1 + z * r), rel=1e-14)

    def test_boundary_image_property(self):
        # the involution at w maps the circle |zeta| = r onto |x - C| = R
        for w_mod, r in [(0.3, 0.5), (0.8, 0.2), (0.6, 0.9)]:
            disc = image_disc(w_mod, r)
            for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
                zeta = r * cmath.exp(1j * theta)
                err = abs(abs(mobius(w_mod, zeta) - disc.center_modulus) - disc.radius)
                assert err < 1e-10

    def test_membership_duality(self):
        rng = np.random.default_rng(15)
        zs = random_disc_points(rng, 800)
        ws = random_disc_points(rng, 800)
        checked = 0
        for z, w in zip(zs, ws):
            r = rng.uniform(0.05, 0.95)
            disc = image_disc(abs(z), r)
            lhs = abs(mobius(w, z))
            rhs = abs(w - disc.center_modulus * cmath.exp(1j * cmath.phase(z)))
            if abs(lhs - r) < 1e-9 or abs(rhs - disc.radius) < 1e-9:
                continue  # skip knife-edge ties
            assert (lhs < r) == (rhs < disc.radius)
            checked += 1
        assert checked > 500

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            image_disc(1.0, 0.5)
        with pytest.raises(DomainError):
            image_disc(0.5, 1.0)


class TestEuclideanLensArea:
    def test_zero_separation(self):
        assert euclidean_lens_complement_area(1.3, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_disjoint_discs(self):
        for r in [0.5, 2.0]:
            for z in [2 * r, 2 * r + 0.1, 10 * r]:
                assert euclidean_lens_complement_area(r, z) == pytest.approx(math.pi * r * r)

    def test_hand_value_unit_case(self):
        expected = math.pi - 2 * math.acos(0.5) + 0.5 * math.sqrt(3.0)
        assert expected == pytest.approx(1.913222954981036, abs=1e-12)
        assert euclidean_lens_complement_area(1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_strip_oracle(self):
        # vertical-strip integration of the region, independent construction
        r, z = 1.0, 1.0
        n = 4000
        xs = np.linspace(z - r, z + r, n, endpoint=False) + r / n
        half = np.sqrt(np.maximum(0.0, r * r - (xs - z) ** 2))
        inner = np.where(np.abs(xs) < r, np.sqrt(np.maximum(0.0, r * r - xs * xs)), 0.0)
        area = float((2 * np.maximum(0.0, half - np.minimum(half, inner))).sum() * (2 * r / n))
        assert euclidean_lens_complement_area(r, z) == pytest.approx(area, abs=1e-3)

    def test_no_cancellation_far_inside_separation(self):
        # pi r^2 - 2 r^2 arccos(z/2r) lost r eps/z relative; at r = 1e150 the
        # planar lens route came out 2x off with a 1e-14 error bar
        for r, z in [(1e3, 1e-3), (1e150, 1.0)]:
            ref = 2 * r * r * math.asin(z / (2 * r)) + 0.5 * z * math.sqrt(4 * r * r - z * z)
            assert euclidean_lens_complement_area(r, z) == pytest.approx(ref, rel=1e-14)

    def test_continuity_at_separation(self):
        for r in [0.4, 1.0, 2.5]:
            left = euclidean_lens_complement_area(r, 2 * r * (1 - 1e-13))
            right = euclidean_lens_complement_area(r, 2 * r)
            assert abs(left - right) < 1e-12 * max(1.0, math.pi * r * r)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            euclidean_lens_complement_area(0.0, 0.5)
        with pytest.raises(DomainError):
            euclidean_lens_complement_area(1.0, -0.5)


class TestHyperbolicLensIntegral:
    def test_centered_point_short_circuits(self):
        res = hyperbolic_lens_integral(0.6, 0.0)
        assert res.value == 0.0 and res.error_estimate == 0.0
        res = hyperbolic_lens_integral_transformed(0.6, 0.0)
        assert res.value == 0.0

    def test_doubles_to_grid_area(self):
        for r, z in [(0.6, 0.5), (0.6, 0.85), (0.3, 0.7)]:
            val = hyperbolic_lens_integral(r, z, TIGHT).value
            oracle = lens_region_grid_area(r, z)
            assert 2 * val == pytest.approx(oracle, rel=3e-3)

    def test_doubles_to_theta_slice_area(self):
        # exact-in-t / numeric-in-theta oracle, opposite integration order
        for r, z in [(0.6, 0.5), (0.6, 0.85), (0.3, 0.7), (0.9, 0.2), (0.2, 0.9)]:
            val = hyperbolic_lens_integral(r, z, TIGHT).value
            oracle = lens_region_theta_slice_area(r, z)
            assert 2 * val == pytest.approx(oracle, rel=1e-7)

    def test_scheme_cross_check(self):
        from dppstats import QuadratureConfig
        vals = {}
        for scheme in ("gauss_legendre_fixed", "adaptive_gauss_kronrod", "tanh_sinh"):
            cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
            vals[scheme] = hyperbolic_lens_integral(0.6, 0.5, cfg).value
        base = vals["gauss_legendre_fixed"]
        for scheme, v in vals.items():
            assert v == pytest.approx(base, rel=1e-10), scheme

    def test_full_disc_closed_form(self):
        # inner_edge >= r: the region is the whole image disc, whose
        # hyperbolic area equals that of D_r by Moebius invariance
        r, z = 0.6, 0.99
        disc = image_disc(z, r)
        assert disc.inner_edge > r
        val = hyperbolic_lens_integral(r, z, TIGHT).value
        assert 2 * val == pytest.approx(math.pi * r * r / (1 - r * r), rel=1e-7)

    def test_route_equivalence_grid(self):
        for r in np.linspace(0.08, 0.92, 10):
            for z in np.linspace(0.05, 0.95, 10):
                a = hyperbolic_lens_integral(r, z, TIGHT).value
                b = hyperbolic_lens_integral_transformed(r, z, TIGHT).value
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a))

    def test_boundary_term_vanishes_continuously(self):
        # at |z| = 2r/(1+r^2) the arccos argument is 1 and the subtraction is 0
        r = 0.55
        z_star = 2 * r / (1 + r * r)
        below = hyperbolic_lens_integral_transformed(r, z_star * (1 - 1e-9), TIGHT).value
        above = hyperbolic_lens_integral_transformed(r, z_star * (1 + 1e-9), TIGHT).value
        assert below == pytest.approx(above, rel=1e-6)

    def test_boundary_argument_identity(self):
        # (r^2 + |C|^2 - R^2)/(2 r |C|) == |z|(1 + r^2)/(2 r)
        for r, z in [(0.4, 0.2), (0.7, 0.5), (0.999, 0.3)]:
            disc = image_disc(z, r)
            lhs = (r * r + disc.center_modulus ** 2 - disc.radius ** 2) / (
                2 * r * disc.center_modulus)
            assert lhs == pytest.approx(z * (1 + r * r) / (2 * r), rel=1e-9)

    def test_boundary_term_scaling_limit(self):
        # (1 - r^2) times the subtracted term tends to arccos(|z|) as r -> 1
        r = 0.999
        for z in (0.2, 0.5, 0.8):
            scaled = math.acos(z * (1 + r * r) / (2 * r))
            assert scaled == pytest.approx(math.acos(z), rel=1e-4)

    def test_near_unit_radius(self):
        # the r -> 1 regime the asymptotics rely on stays finite and positive
        val = hyperbolic_lens_integral(0.999, 0.5, DEFAULT_QUAD).value
        ref = hyperbolic_lens_integral_transformed(0.999, 0.5, DEFAULT_QUAD).value
        assert val > 0
        assert val == pytest.approx(ref, rel=1e-8)

    def test_extreme_z_matches_invariant_area(self):
        r = 0.8
        for z in [0.999999, 1 - 1e-9, 1 - 1e-12]:
            val = hyperbolic_lens_integral(r, z, DEFAULT_QUAD).value
            assert 2 * val == pytest.approx(math.pi * r * r / (1 - r * r), rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyperbolic_lens_integral(1.0, 0.5)
        with pytest.raises(DomainError):
            hyperbolic_lens_integral(0.5, 1.0)


class TestBatchedLens:
    """Row k of a batched lens call against the public one-|z| functions."""

    @pytest.mark.parametrize("scheme", ["gauss_legendre_fixed", "tanh_sinh"])
    @pytest.mark.parametrize("batched, public", [
        (geometry._lens_direct, hyperbolic_lens_integral),
        (geometry._lens_transformed, hyperbolic_lens_integral_transformed)])
    def test_rows_match_scalar_lens(self, scheme, batched, public):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-12, abs_tol=1e-14)
        r = 0.55
        kink = 2 * r / (1 + r * r)
        # |z| = 0, an empty range (u_z + u_r rounds to u_r), both sides of the
        # kink and |z| -> 1
        zs = [0.0, 1e-17, 0.1, kink * (1 - 1e-9), kink, kink * (1 + 1e-9), 0.9,
              1 - 1e-9, 1 - 1e-12]
        values, errs, ok = batched(r, np.arctanh(np.array(zs)), cfg)
        assert ok.all()
        assert values[0] == values[1] == errs[0] == errs[1] == 0.0
        for z, v, e in zip(zs, values, errs):
            one = public(r, z, cfg)
            assert v == pytest.approx(one.value, rel=1e-13, abs=1e-300)
            assert e <= max(1e-12, 1e-3 * abs(v))
        assert values[-1] == pytest.approx(0.5 * math.pi * r * r / (1 - r * r), rel=1e-9)

    def test_one_row_keeps_the_strict_contract(self, small_budget):
        small_budget(4, 8)
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)
        for public in (hyperbolic_lens_integral, hyperbolic_lens_integral_transformed):
            with pytest.raises(QuadratureFailure):
                public(0.6, 0.5, cfg)
        _, err, ok = geometry._lens_direct(0.6, np.array([math.atanh(0.5)]), cfg)
        assert not ok[0] and err[0] > 0.0           # the batch itself never raises
