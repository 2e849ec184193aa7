"""Dissipation law evaluation, structural hypotheses, and regularization."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from thermoshield.annulus import FourierShape, Mesh, StarPair, _assembly, solve_state
from thermoshield.dissipation import (
    Convection,
    DissipationLaw,
    Linear,
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
    epsilon_regularize,
    flat_criterion,
    law_from_json,
    law_to_json,
    unit_ball_volume,
)
from thermoshield.radial import general_radial_energy

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


def _no_call(*args, **kwargs):
    raise AssertionError("the law was evaluated")


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

    @pytest.mark.parametrize(
        "knots, message",
        [
            ([(0, 0)], "at least two knots"),
            ([(0, 0), (1.5, 1.0)], r"must lie in \[0, 1\]"),
        ],
        ids=["one-knot", "knot-beyond-1"],
    )
    def test_tabulated_rejects_bad_knots(self, knots, message):
        with pytest.raises(ValueError, match=message):
            Tabulated(knots)

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

    @pytest.mark.parametrize("law", [Power(2.0, 1.0), SurfaceCost(0.3, 1.0, 1.0), SurfaceCost(0.3, 0.0, 0.5)])
    def test_linear_or_vanishing_power_term_bends_nowhere(self, law):
        # The power formula's curvature c alpha (alpha - 1) u^(alpha - 2) is
        # 0 * inf at u = 0 when alpha = 1 or c = 0; such a term bends nowhere.
        _, _, bend = law.jet([0.0, 0.5])
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
        u = np.linspace(0.0, 1.0, 4001)
        assert np.allclose(law.value(u), plain.value(u), rtol=1e-13, atol=0.0)
        for got, want in zip(law.jet(u), plain.jet(u)):
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        R = [1.0, 1.5, 2.0, 4.0]
        got = [e.total for e in general_radial_energy(n, law, R)]
        want = [e.total for e in general_radial_energy(n, plain, R)]
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

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

    def test_tabulated_breakpoints_and_convexity_computed_once(self, monkeypatch):
        law = Tabulated([(0, 0), (0.3, 0.1), (0.3, 0.5), (1, 1)])
        first, convex = law.breakpoints, law.convex
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[1] = 0.5
        monkeypatch.setattr(Tabulated, "_jet", _no_call)
        assert law.breakpoints is first
        assert law.convex is convex is False

    @pytest.mark.parametrize(
        "knots, expected",
        [
            ([(0, 0), (0, 0.5), (1, 1.5)], [0.0, 1.0]),
            ([(0, 0), (0.3, 0.1), (0.3, 0.5), (0.3, 0.7), (1, 1)], [0.0, 0.3, 1.0]),
            ([(0, 0), (0.5, 0.2), (1, 1), (1, 2)], [0.0, 0.5, 1.0]),
        ],
    )
    def test_repeated_abscissae_give_one_breakpoint(self, knots, expected):
        # Repeats at 0, inside and at 1 each leave one distinct knot.
        assert np.array_equal(Tabulated(knots).breakpoints, expected)


@dataclass(frozen=True)
class _Offset(DissipationLaw):
    def _raw(self, u):
        return u + 0.1


@dataclass(frozen=True)
class _Negative(DissipationLaw):
    def _raw(self, u):
        return -u


@dataclass(frozen=True)
class _Decreasing(DissipationLaw):
    def _raw(self, u):
        return u * (1.0 - u)


class TestGridChecks:
    @pytest.mark.parametrize(
        "law, message",
        [
            (_Offset, "_Offset: theta\\(0\\) must be 0"),
            (_Negative, "_Negative: negative values on \\[0, 1\\]"),
            (_Decreasing, "_Decreasing: not nondecreasing on \\[0, 1\\]"),
        ],
    )
    def test_user_law_rejected(self, law, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            law()


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


class TestQuadratic:
    @pytest.mark.parametrize(
        "law, quadratic",
        [
            (Convection(1.0), True),
            (Linear(2.0), False),
            (Power(1.5, 2.0), True),
            (Power(1.5, 0.7), False),
            (Radiation(0.25), False),
            (SurfaceCost(0.3, 1.0, 2.0), False),
            (Tabulated([(0, 0), (1, 1.5)]), False),
            (epsilon_regularize(Linear(1.0), 0.1), False),
        ],
    )
    def test_per_class(self, law, quadratic):
        # Convection's law only: the linear laws detach from the clamp at 0.
        assert law.quadratic is quadratic
        with pytest.raises(AttributeError):
            law.quadratic = not quadratic


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

    @pytest.mark.parametrize(
        "law, attached", [(Radiation(1.0), True), (Power(1.0, 0.5), False)], ids=["attached", "detached"]
    )
    def test_solved_energy_converges_to_the_law(self, law, attached):
        # On an attached outer row theta_eps acts as theta + eps, so the energy
        # rises by eps times the row's length; a row detached at 0, where the
        # regularization is a quadratic cap, moves by about eps^2.
        pair = StarPair(FourierShape([1, 0, 0, 0.05, 0]), FourierShape([2, 0, 0, 0, 0.12]))
        mesh, eps = Mesh(17, 64), 0.01
        e = solve_state(pair, law, mesh).energy
        e_eps = solve_state(pair, epsilon_regularize(law, eps), mesh).energy
        assert (e.trace > 0.0) == attached
        if attached:
            length = float(np.sum(_assembly(pair, mesh).bw))
            assert (e_eps.total - e.total) / eps == pytest.approx(length, rel=1e-3)
        else:
            assert abs(e_eps.total - e.total) <= eps**2 * e.total

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

    def test_foreign_law_type_named(self):
        # A law the wire format has no tag for cannot be written.
        class Foreign(DissipationLaw):
            def _raw(self, u):
                return u**3

        with pytest.raises(TypeError, match="unknown law type Foreign"):
            law_to_json(Foreign())

    def test_subclass_of_a_tagged_law_named(self):
        # Tagged "linear", this law would read back as theta(0.5) = 0.5, not 0.125.
        class Cubic(Linear):
            def _raw(self, u):
                return self.c * u**3

        assert Cubic(1.0).value(0.5) == pytest.approx(0.125)
        with pytest.raises(TypeError, match="unknown law type Cubic"):
            law_to_json(Cubic(1.0))

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
        lambda: flat_criterion(Radiation(1.0), 2.5),
        lambda: flat_criterion(Radiation(1.0), 1),
    ],
    ids=["ball-fraction", "ball-one", "flat-fraction", "flat-one"],
)
def test_dimension_must_be_an_integer_of_at_least_two(call):
    with pytest.raises(ValueError, match="n must be an integer of at least 2"):
        call()


@pytest.mark.parametrize("bad", [2.5, True, 1])
def test_count_must_be_an_integer(bad):
    with pytest.raises(ValueError, match=f"^n must be an integer of at least 2, got {bad!r}$"):
        unit_ball_volume(bad)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
    assert unit_ball_volume(5) == pytest.approx(8.0 * math.pi**2 / 15.0)
