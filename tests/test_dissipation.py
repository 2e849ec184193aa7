"""Dissipation law evaluation, structural hypotheses, and regularization."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from thermoshield.dissipation import (
    Convection,
    DegenerateLawError,
    Linear,
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
    epsilon_regularize,
    flat_criterion,
    hyp_theta_inf,
    law_from_json,
    law_to_json,
    unit_ball_volume,
    volume_bound,
)

ALL_LAWS = [
    Convection(1.0),
    Convection(0.3),
    Radiation(1.0),
    Radiation(0.25),
    Linear(2.0),
    Power(1.5, 0.7),
    Power(1.0, 3.0),
    SurfaceCost(1.0, 0.5, 1.0),
    SurfaceCost(2.0, 0.0, 1.0),
    Tabulated([(0, 0), (0.25, 0.1), (0.5, 0.1), (1, 2.0)]),
    Tabulated([(0, 0), (0, 0.5), (1, 1.5)]),
]

# (law, whether the volume integral diverges): it does exactly when theta
# vanishes at least quadratically at 0, so that t^(2n-1)/theta(t)^n is at
# least of order 1/t there.
ORACLE_LAWS = [
    pytest.param(Convection(1.0), True, id="convection"),
    pytest.param(Radiation(1.0), True, id="radiation"),
    pytest.param(Linear(1.0), False, id="linear"),
    pytest.param(Power(1.0, 0.5), False, id="power-0.5"),
    pytest.param(Power(1.0, 1.0), False, id="power-1"),
    pytest.param(Power(1.0, 1.5), False, id="power-1.5"),
    pytest.param(Power(1.0, 3.0), True, id="power-3"),
    pytest.param(SurfaceCost(0.3, 1.0, 2.0), False, id="surface-cost"),
    pytest.param(SurfaceCost(1.0, 0.0, 1.0), False, id="surface-cost-flat"),
    pytest.param(Tabulated([(0, 0), (0.25, 0.1), (0.5, 0.1), (1, 2.0)]), False, id="tabulated-kinked"),
    pytest.param(Tabulated([(0, 0), (0.3, 0.1), (0.3, 0.5), (1, 1)]), False, id="tabulated-jump"),
    pytest.param(epsilon_regularize(Radiation(1.0), 0.1), True, id="regularized-radiation"),
]


def _quad_integral(law, n):
    """int_{1e-8}^1 t^(2n-1)/theta(t)^n dt by adaptive quadrature on each
    decade, split at the knots of a tabulated law."""
    knots = [u for u, _ in getattr(law, "knots", ())]
    total = 0.0
    for k in range(8):
        lo, hi = 10.0 ** -(k + 1), 10.0**-k
        points = [u for u in knots if lo < u < hi] or None
        total += quad(lambda t: t ** (2 * n - 1) / law.value(t) ** n, lo, hi, points=points, limit=200)[0]
    return total


class TestEval:
    def test_convection_at_one(self):
        assert Convection(1.0).value(1.0) == pytest.approx(1.0)

    def test_radiation_at_one(self):
        # 1/5 + 1 + 2 + 2
        assert Radiation(1.0).value(1.0) == pytest.approx(5.2, abs=1e-14)

    def test_surface_cost_vanishes_at_zero(self):
        assert SurfaceCost(2.0, 0.0, 1.0).value(0.0) == 0.0

    def test_surface_cost_jump(self):
        law = SurfaceCost(1.0, 0.5, 2.0)
        assert law.value(1e-12) == pytest.approx(1.0, abs=1e-9)
        assert law.value(0.5) == pytest.approx(1.0 + 0.5 * 0.25)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_zero_and_nonnegative(self, law):
        assert law.value(0.0) == 0.0
        grid = np.linspace(0.0, 1.0, 1024)
        vals = np.asarray(law.value(grid))
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_nondecreasing_on_grid(self, law):
        grid = np.linspace(0.0, 1.0, 1024)
        vals = np.asarray(law.value(grid))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            Convection(1.0).value(1.5)
        with pytest.raises(ValueError):
            Convection(1.0).value(-0.2)

    @pytest.mark.parametrize(
        "u",
        [[], [math.nan], [0.5, math.nan, 0.2], [-1e-12, 1.0 + 1e-12], [-0.0, 1.0], [[0.0, 1.0], [0.3, 0.7]]],
    )
    def test_domain_accepts(self, u):
        # A NaN passes, and so does rounding noise of 1e-12 beyond either end.
        assert np.asarray(Convection(1.0).value(np.array(u))).shape == np.shape(u)

    @pytest.mark.parametrize(
        "u", [[-2e-12], [1.0 + 2e-12], [math.nan, 2.0], [-0.5, math.nan], [[0.2, 0.3], [math.nan, -1.0]]]
    )
    def test_domain_rejects(self, u):
        # An out-of-range entry is rejected also when a NaN sits beside it.
        with pytest.raises(ValueError, match="outside"):
            Convection(1.0).value(np.array(u))

    def test_domain_keeps_negative_zero(self):
        assert np.signbit(Linear(1.0).value(np.array([-0.0])))[0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Convection(0.0)
        with pytest.raises(ValueError):
            Radiation(-1.0)
        with pytest.raises(ValueError):
            Power(1.0, 0.0)
        with pytest.raises(ValueError):
            SurfaceCost(0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: Convection(math.nan), "beta"),
            (lambda: Radiation(math.inf), "gamma"),
            (lambda: Power(1.0, [1.0]), "alpha"),
            (lambda: SurfaceCost(1.0, None, 1.0), "c2"),
            (lambda: Linear("1"), "c"),
            (lambda: Tabulated(5), "knots"),
            (lambda: Tabulated([(0, 0), (1,)]), "knots"),
            (lambda: Tabulated([(0, 0), (1, math.nan)]), "knots"),
        ],
    )
    def test_nonfinite_or_nonnumeric_parameter_named(self, make, name):
        with pytest.raises(ValueError, match=name):
            make()

    def test_tabulated_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Tabulated([(0, 0), (0.5, 1.0), (1.0, 0.5)])
        with pytest.raises(ValueError):
            Tabulated([(0, 0.5), (1.0, 1.0)])

    def test_tabulated_left_continuity(self):
        # Duplicated abscissa encodes a jump; the value at the jump is the
        # left (lower) one.
        law = Tabulated([(0, 0), (0.5, 0.2), (0.5, 1.0), (1.0, 1.0)])
        assert law.value(0.5) == pytest.approx(0.2)
        assert law.value(0.5 + 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert law.value(0.25) == pytest.approx(0.1)


class TestDerivative:
    """Exact one-sided slopes and curvature from `jet`."""

    def test_convection(self):
        left, right, bend = Convection(2.0).jet(0.5)
        assert left == right == 2.0
        assert bend == 4.0

    def test_radiation_at_one(self):
        # 1 + 4 gamma + 6 gamma^2 + 4 gamma^3 at gamma = 1; the right slope
        # at 1 repeats the left one.
        left, right, _ = Radiation(1.0).jet(1.0)
        assert left == right == 15.0

    def test_surface_cost_jump_infinite_slope(self):
        left, right, _ = SurfaceCost(1.0, 1.0, 1.0).jet(np.array([0.0, 0.5]))
        assert right[0] == math.inf and left[0] == math.inf
        assert left[1] == right[1] == 1.0

    def test_power_cusp_infinite_slope(self):
        left, right, _ = Power(1.0, 0.5).jet(0.0)
        assert right == math.inf and left == math.inf

    @pytest.mark.parametrize("law", [Power(5e-324, 0.5), SurfaceCost(1.0, 5e-324, 0.5)])
    def test_denormal_coefficient_cusp(self, law):
        # c alpha rounds to 0 here; the cusp keeps its infinite slope and
        # the concave curvature's -inf, as with a normal coefficient.
        left, right, bend = law.jet([0.0])
        assert left[0] == right[0] == math.inf
        assert bend[0] == -math.inf

    def test_linear_constant(self):
        left, right, bend = Linear(3.0).jet(np.array([0.0, 1.0]))
        assert np.all(left == 3.0) and np.all(right == 3.0)
        assert np.all(bend == 0.0)

    def test_tabulated_exact_slope(self):
        left, right, bend = Tabulated([(0, 0), (1.0, 2.0)]).jet(np.array([0.0, 0.5, 1.0]))
        assert np.all(left == 2.0) and np.all(right == 2.0)
        assert np.all(bend == 0.0)

    @pytest.mark.parametrize("law", [Convection(0.7), Radiation(0.4), Power(2.0, 2.5)])
    def test_matches_finite_difference(self, law):
        h = 1e-7
        for u in (0.2, 0.5, 0.9):
            fd = (law.value(u + h) - law.value(u - h)) / (2 * h)
            left, right, bend = law.jet(u)
            assert left == right == pytest.approx(fd, rel=1e-5)
            second = (law.value(u + 1e-4) - 2 * law.value(u) + law.value(u - 1e-4)) / 1e-8
            assert bend == pytest.approx(second, rel=1e-5)


class TestBreakpoints:
    def test_smooth_laws_end_points_only(self):
        for law in (Convection(1.0), Radiation(1.0), Power(1.0, 0.5), SurfaceCost(0.3, 1.0, 2.0)):
            assert np.array_equal(law.breakpoints, [0.0, 1.0])

    def test_tabulated_jump(self):
        law = Tabulated([(0, 0), (0.3, 0.1), (0.3, 0.5), (1, 1)])
        assert np.array_equal(law.breakpoints, [0.0, 0.3, 1.0])
        # The jump has an infinite right slope; the left one is the chord's.
        left, right, _ = law.jet(0.3)
        assert right == math.inf
        assert left == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_tabulated_kink_and_flat_tail(self):
        law = Tabulated([(0, 0), (0.5, 1.0)])
        assert np.array_equal(law.breakpoints, [0.0, 0.5, 1.0])
        left, right, _ = law.jet(np.array([0.5, 0.75, 1.0]))
        assert np.array_equal(left, [2.0, 0.0, 0.0])
        assert np.array_equal(right, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_collinear_knot_dropped(self, n):
        law = Tabulated([(0, 0), (0.2, 0.1), (0.5, 0.25), (1, 1)])
        assert np.array_equal(law.breakpoints, [0.0, 0.5, 1.0])
        plain = Tabulated([(0, 0), (0.5, 0.25), (1, 1)])
        assert volume_bound(law, n) == pytest.approx(volume_bound(plain, n), rel=1e-13)

    def test_regularized_linear_keeps_only_real_kinks(self):
        # Knots on the quadratic branch, and the first on the affine branch
        # u + eps, are kinks; knots between two affine neighbours are not.
        eps = 0.1
        reg = epsilon_regularize(Linear(1.0), eps)
        u = np.array([k for k, _ in reg.knots])
        curved = (1.0 + eps) * (u / eps) ** 2 < u + eps
        kink = curved[1:-1] | curved[:-2]
        expected = np.concatenate([[0.0], u[1:-1][kink], [1.0]])
        assert np.array_equal(reg.breakpoints, expected)
        assert len(u) == 7169 and len(expected) == 4905

    def test_regularized_radiation_keeps_every_knot(self):
        reg = epsilon_regularize(Radiation(1.0), 0.1)
        assert np.array_equal(reg.breakpoints, [k for k, _ in reg.knots])


class TestConvex:
    @pytest.mark.parametrize(
        "law, convex",
        [
            (Convection(1.0), True),
            (Radiation(0.25), True),
            (Linear(2.0), True),
            (Power(1.0, 1.0), True),
            (Power(1.0, 3.0), True),
            (Power(1.5, 0.7), False),
            (SurfaceCost(2.0, 0.0, 1.0), False),
            (SurfaceCost(0.3, 1.0, 2.0), False),
            (Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)]), True),
            (Tabulated([(0, 0), (0.2, 0.1), (0.5, 0.25), (1, 1)]), True),
            (Tabulated([(0, 0), (0.25, 0.1), (0.5, 0.1), (1, 2.0)]), False),
            (Tabulated([(0, 0), (0.5, 1.0)]), False),
            (Tabulated([(0, 0), (0.3, 0.1), (0.3, 0.5), (1, 1)]), False),
            (Tabulated([(0, 0), (0, 0.5), (1, 1.5)]), False),
            (epsilon_regularize(Linear(1.0), 0.1), False),
        ],
    )
    def test_per_class(self, law, convex):
        assert law.convex is convex


class TestHypThetaInf:
    def test_convection_exactly_one_ninth(self):
        # (s/3)^2 / s^2 is 1/9 at every grid point.
        assert hyp_theta_inf(Convection(2.3)) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_power_linear(self):
        assert hyp_theta_inf(Power(1.0, 1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_radiation(self):
        got = hyp_theta_inf(Radiation(1.0))
        assert got == pytest.approx(0.0595, abs=2e-3)
        # Independent fine-grid oracle; the minimum sits at s = 1 where the
        # ratio is theta(1/3)/theta(1), below the s -> 0 limit 1/9.
        s = np.geomspace(1e-9, 1.0, 200_001)
        law = Radiation(1.0)
        oracle = float(np.min(law.value(s / 3.0) / law.value(s)))
        assert got == pytest.approx(oracle, abs=1e-4)
        assert got == pytest.approx(law.value(1.0 / 3.0) / 5.2, abs=1e-6)

    def test_result_in_unit_interval(self):
        for law in ALL_LAWS:
            r = hyp_theta_inf(law)
            assert 0.0 <= r <= 1.0 + 1e-12

    def test_degenerate_law(self):
        with pytest.raises(DegenerateLawError):
            hyp_theta_inf(Tabulated([(0, 0), (1, 0)]))


class TestVolumeBound:
    def test_convection_diverges(self):
        # Quadratic decay at 0 makes the integrand behave like 1/t.
        assert volume_bound(Convection(1.0), 2) == math.inf

    def test_power_linear(self):
        got = volume_bound(Power(1.0, 1.0), 2, 1.0)
        expected = math.pi + (1.0 / 81.0) * 0.5
        assert got == pytest.approx(expected, rel=1e-6)
        # Quadrature oracle for the integral factor.
        integral, _ = quad(lambda t: t**3 / t**2, 1e-8, 1.0)
        assert integral == pytest.approx(0.5, rel=1e-6)
        ratio = hyp_theta_inf(Power(1.0, 1.0))
        assert got == pytest.approx(math.pi + ratio**4 * integral, rel=1e-6)

    def test_surface_cost(self):
        # theta is identically 1 on (0, 1]: ratio 1, integral 1/4.
        got = volume_bound(SurfaceCost(1.0, 0.0, 1.0), 2, 1.0)
        assert got == pytest.approx(math.pi + 0.25, rel=1e-6)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            volume_bound(Power(1.0, 1.0), 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("law, diverges", ORACLE_LAWS)
    def test_matches_quadrature(self, law, diverges, n):
        # c_n = 1e12 lifts the integral term far above omega_n, so that the
        # difference shows the integral's own error.
        got = volume_bound(law, n, 1e12) - unit_ball_volume(n)
        if diverges:
            assert got == math.inf
        else:
            expected = 1e12 * hyp_theta_inf(law) ** (2 * n) * _quad_integral(law, n)
            assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("alpha", [3.0, 8.0, 20.0])
    def test_steep_power_law_diverges_silently(self, alpha, n):
        # At alpha = 20 theta(t)^n underflows near t = 1e-8.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert volume_bound(Power(1.0, alpha), n) == math.inf


class TestFlatCriterion:
    def test_convection_identity(self):
        # (2 beta)^2 / beta = 4 beta, so the flag holds exactly when
        # beta < n - 1.
        for n in (2, 3, 4):
            for beta in np.linspace(0.05, 5.0, 50):
                fc = flat_criterion(Convection(float(beta)), n)
                assert fc.ratio == pytest.approx(4.0 * beta, rel=1e-12)
                assert fc.flat_optimal_for_small_M == (beta < n - 1)

    def test_radiation(self):
        fc = flat_criterion(Radiation(1.0), 2)
        assert fc.ratio == pytest.approx(225.0 / 5.2, rel=1e-12)
        assert fc.bound == 4.0
        assert not fc.flat_optimal_for_small_M

    def test_convection_three_dim(self):
        fc = flat_criterion(Convection(1.5), 3)
        assert fc.ratio == pytest.approx(6.0)
        assert fc.bound == pytest.approx(8.0)
        assert fc.flat_optimal_for_small_M

    def test_propagates_nondifferentiable(self):
        # The jump at 0 leaves the slope at 1 finite.
        fc = flat_criterion(SurfaceCost(1.0, 1.0, 1.0), 2)
        assert fc.ratio == pytest.approx(1.0 / 2.0)


class TestEpsilonRegularize:
    def test_linear_endpoints(self):
        reg = epsilon_regularize(Linear(1.0), 0.5)
        assert reg.value(0.0) == 0.0
        # min(1.5 * (1/0.5)^2, 1 + 0.5) = min(6, 1.5)
        assert reg.value(1.0) == pytest.approx(1.5, rel=1e-12)

    def test_quadratic_cap_near_zero(self):
        for law in (Linear(1.0), Radiation(1.0), SurfaceCost(1.0, 0.0, 1.0)):
            reg = epsilon_regularize(law, 0.1)
            cap = (law.value(1.0) + 0.1) * (0.001 / 0.1) ** 2
            # Chords of the quadratic branch overshoot by O(knot ratio - 1).
            assert reg.value(0.001) <= cap * (1.0 + 1e-5)

    def test_stays_within_eps_of_law(self):
        eps = 0.25
        law = Radiation(1.0)
        reg = epsilon_regularize(law, eps)
        grid = np.linspace(0.0, 1.0, 1025)
        assert np.all(np.asarray(reg.value(grid)) <= np.asarray(law.value(grid)) + eps + 1e-12)

    def test_monotone(self):
        reg = epsilon_regularize(SurfaceCost(2.0, 1.0, 0.5), 0.05)
        grid = np.linspace(0.0, 1.0, 2048)
        assert np.all(np.diff(np.asarray(reg.value(grid))) >= -1e-12)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            epsilon_regularize(Linear(1.0), 0.0)
        with pytest.raises(ValueError):
            epsilon_regularize(Linear(1.0), 1.0)


class TestJson:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_round_trip(self, law):
        clone = law_from_json(law_to_json(law))
        grid = np.linspace(0.0, 1.0, 257)
        assert np.allclose(np.asarray(clone.value(grid)), np.asarray(law.value(grid)))

    def test_schema_examples(self):
        assert law_from_json({"type": "convection", "beta": 1.0}) == Convection(1.0)
        assert law_from_json({"type": "radiation", "gamma": 1.0}) == Radiation(1.0)
        assert law_from_json({"type": "linear", "c": 1.0}) == Linear(1.0)
        assert law_from_json({"type": "power", "c": 1.0, "alpha": 1.0}) == Power(1.0, 1.0)
        assert law_from_json(
            {"type": "surface_cost", "c1": 1.0, "c2": 0.0, "alpha": 1.0}
        ) == SurfaceCost(1.0, 0.0, 1.0)

    def test_wire_format(self):
        assert law_to_json(Convection(1.5)) == {"type": "convection", "beta": 1.5}
        assert law_to_json(Radiation(0.7)) == {"type": "radiation", "gamma": 0.7}
        assert law_to_json(Linear(2.0)) == {"type": "linear", "c": 2.0}
        assert law_to_json(Power(1.0, 0.5)) == {"type": "power", "c": 1.0, "alpha": 0.5}
        assert law_to_json(SurfaceCost(0.2, 1.0, 2.0)) == {
            "type": "surface_cost", "c1": 0.2, "c2": 1.0, "alpha": 2.0
        }
        # A duplicated abscissa encodes a jump; knots come back as lists.
        jump = law_to_json(Tabulated([(0.0, 0.0), (0.5, 0.3), (0.5, 0.6), (1.0, 1.0)]))
        assert jump == {
            "type": "tabulated", "knots": [[0.0, 0.0], [0.5, 0.3], [0.5, 0.6], [1.0, 1.0]]
        }
        assert all(type(knot) is list for knot in jump["knots"])

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            law_from_json({"type": "mystery"})

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="'foo'"):
            law_from_json({"type": "radiation", "gamma": 1.0, "foo": 1})

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match="'gamma'"):
            law_from_json({"type": "radiation"})
        with pytest.raises(ValueError, match="'knots'"):
            law_from_json({"type": "tabulated"})


@pytest.mark.parametrize(
    "call",
    [
        lambda: unit_ball_volume(2.5),
        lambda: unit_ball_volume(1),
        lambda: volume_bound(Radiation(1.0), 2.5),
        lambda: flat_criterion(Radiation(1.0), 2.5),
        lambda: flat_criterion(Radiation(1.0), 1),
    ],
    ids=["ball-fraction", "ball-one", "volume-bound-fraction", "flat-fraction", "flat-one"],
)
def test_dimension_must_be_an_integer_of_at_least_two(call):
    with pytest.raises(ValueError, match="n must be an integer of at least 2"):
        call()


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
    assert unit_ball_volume(5) == pytest.approx(8.0 * math.pi**2 / 15.0)
