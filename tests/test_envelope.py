import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discert import envelope
from discert.bellops import chsh
from discert.envelope import (
    PiecewiseLinear,
    build_g_epsilon,
    lower_convex_hull,
    upper_concave_hull,
)
from discert.extract import ExtractabilityCurve, analytic_curve

RT2 = math.sqrt(2.0)


def brute_force_lower_hull(points, queries):
    """O(n^3) oracle: max over all two-point lines that minorize the set."""
    pts = np.asarray(points, dtype=float)
    best = np.full(len(queries), -np.inf)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            (x0, y0), (x1, y1) = pts[i], pts[j]
            if x0 == x1:
                continue
            s = (y1 - y0) / (x1 - x0)
            line = y0 + s * (pts[:, 0] - x0)
            if np.all(pts[:, 1] >= line - 1e-12):
                best = np.maximum(best, y0 + s * (np.asarray(queries) - x0))
    return best


class TestPiecewiseLinear:
    def test_interpolation_and_span(self):
        pl = PiecewiseLinear(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0]))
        assert pl(0.5) == pytest.approx(1.0)
        assert pl(2.0) == pytest.approx(1.0)
        assert pl.span == (0.0, 3.0)

    def test_constant_extension(self):
        pl = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert pl(-5.0) == 1.0
        assert pl(9.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_knots_read_only(self):
        pl = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        with pytest.raises(ValueError):
            pl.xs[0] = 5.0


class TestHulls:
    def test_tent_shape(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        lower = lower_convex_hull(pts)
        assert lower(1.0) == pytest.approx(0.0)
        upper = upper_concave_hull(pts)
        assert upper(0.5) == pytest.approx(0.5)
        assert upper(1.0) == pytest.approx(1.0)

    def test_collinear_points_preserved_as_function(self):
        xs = np.linspace(0.0, 4.0, 9)
        pts = np.column_stack([xs, 2.0 * xs + 1.0])
        hull = lower_convex_hull(pts)
        assert np.allclose(hull(xs), 2.0 * xs + 1.0, atol=1e-12)

    def test_convex_input_kept_entirely(self):
        xs = np.linspace(-2.0, 2.0, 11)
        hull = lower_convex_hull(np.column_stack([xs, xs**2]))
        assert np.allclose(hull(xs), xs**2, atol=1e-12)
        # and the concave mirror keeps only the chord
        upper = upper_concave_hull(np.column_stack([xs, xs**2]))
        assert upper.xs.size == 2

    def test_duplicate_abscissae(self):
        pts = [(0.0, 1.0), (0.0, 0.0), (1.0, 2.0), (1.0, 3.0)]
        assert lower_convex_hull(pts)(0.0) == 0.0
        assert lower_convex_hull(pts)(1.0) == 2.0
        assert upper_concave_hull(pts)(0.0) == 1.0
        assert upper_concave_hull(pts)(1.0) == 3.0

    def test_needs_two_distinct_abscissae(self):
        with pytest.raises(ValueError):
            lower_convex_hull([(1.0, 0.0), (1.0, 2.0)])

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = np.column_stack(
                [rng.uniform(0.0, 1.0, 12), rng.uniform(-1.0, 1.0, 12)]
            )
            hull = lower_convex_hull(pts)
            lo, hi = hull.span
            queries = np.linspace(lo, hi, 9)
            assert np.allclose(hull(queries), brute_force_lower_hull(pts, queries), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hull_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        pts = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)])
        hull = lower_convex_hull(pts)
        # minorizes every input point
        assert np.all(hull(pts[:, 0]) <= pts[:, 1] + 1e-10)
        # convex: slopes non-decreasing
        slopes = np.diff(hull.ys) / np.diff(hull.xs)
        assert np.all(np.diff(slopes) >= -1e-9)
        # idempotent
        again = lower_convex_hull(np.column_stack([hull.xs, hull.ys]))
        grid = np.linspace(*hull.span, 17)
        assert np.allclose(hull(grid), again(grid), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_upper_mirrors_lower(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 10)])
        up = upper_concave_hull(pts)
        lo = lower_convex_hull(np.column_stack([pts[:, 0], -pts[:, 1]]))
        grid = np.linspace(*up.span, 13)
        assert np.allclose(up(grid), -lo(grid), atol=1e-12)


class TestPenaltyCurve:
    """G_eps is a plain PiecewiseLinear; build_g_epsilon checks its own output."""

    def test_validation(self, monkeypatch):
        bad_hulls = [
            ([0.0, 1.0], [0.2, 0.8]),  # increasing
            ([0.0, 1.0], [1.5, 0.2]),  # above 1
            ([0.0, 1.0], [0.2, -0.1]),  # below 0
            ([0.0, 1.0, 2.0], [1.0, 0.2, 0.0]),  # convex dip
        ]
        for xs, ys in bad_hulls:
            hull = PiecewiseLinear(np.array(xs), np.array(ys))
            monkeypatch.setattr(envelope, "upper_concave_hull", lambda pts, hull=hull: hull)
            with pytest.raises(ValueError):
                build_g_epsilon(analytic_curve("bardyn_locc"), 0.1)

    def test_clamped_evaluation(self):
        g = build_g_epsilon(analytic_curve("kaniewski_lo"), 0.05)
        lo, hi = g.span
        assert g(lo - 3.0) == g.ys[0] == g(lo)
        assert g(hi + 7.0) == g.ys[-1] == g(hi)


class TestBuildGEpsilon:
    def test_constant_curve(self):
        xi = PiecewiseLinear(np.array([2.0, 2.0 * RT2]), np.array([0.5, 0.5]))
        g0 = build_g_epsilon(xi, 0.0)
        grid = np.linspace(2.0, 2.0 * RT2, 11)
        assert np.allclose(g0(grid), math.sqrt(0.5), atol=1e-12)
        g1 = build_g_epsilon(xi, 0.1)
        assert np.allclose(g1(grid), math.sqrt(0.5) - 0.1, atol=1e-12)

    def test_analytic_curve_right_endpoint(self):
        curve = analytic_curve("bardyn_locc")
        g = build_g_epsilon(curve, 0.1)
        # exact zero at the quantum maximum: the crossing of 1 - eps^2 is
        # inserted as a knot, and everything at or past it is pinned
        assert g(2.0 * RT2) == 0.0
        assert g(2.82) > 0.0
        # flat at sqrt(1/2) - eps up to the local bound, decreasing after
        assert g(2.0) == pytest.approx(math.sqrt(0.5) - 0.1, abs=1e-9)
        assert g(-2.0 * RT2) == pytest.approx(math.sqrt(0.5) - 0.1, abs=1e-9)
        grid = np.linspace(-2.0 * RT2, 2.0 * RT2, 101)
        assert np.all(np.diff(g(grid)) <= 1e-12)
        # eps = 0 keeps a conservative positive value at the right edge
        # because the input only reaches 1 exactly there
        g0 = build_g_epsilon(curve, 0.0)
        assert 0.0 <= g0(2.0 * RT2) <= math.sqrt(0.5)

    def test_domination_and_epsilon_order(self):
        xi = curve = analytic_curve("bardyn_locc")
        grid = np.linspace(2.0, 2.0 * RT2, 301)
        prev = None
        for eps in (0.0, 0.05, 0.1, 0.15):
            g = build_g_epsilon(curve, eps)
            h = np.maximum(np.sqrt(1.0 - np.clip(xi(grid), 0.0, 1.0)) - eps, 0.0)
            assert np.all(g(grid) >= h - 1e-12)
            if prev is not None:
                assert np.all(prev(grid) >= g(grid) - 1e-12)
            prev = g

    def test_midpoint_concavity(self):
        g = build_g_epsilon(analytic_curve("bardyn_locc"), 0.05)
        rng = np.random.default_rng(11)
        a = rng.uniform(-2.0 * RT2, 2.0 * RT2, 500)
        b = rng.uniform(-2.0 * RT2, 2.0 * RT2, 500)
        mid = g((a + b) / 2.0)
        assert np.all(mid >= (g(a) + g(b)) / 2.0 - 1e-12)

    def test_input_validation(self):
        with pytest.raises(TypeError):
            build_g_epsilon(lambda w: 0.5, 0.1)
        decreasing = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.9, 0.1]))
        with pytest.raises(ValueError):
            build_g_epsilon(decreasing, 0.1)
        concave = PiecewiseLinear(
            np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.9, 1.0])
        )
        with pytest.raises(ValueError):
            build_g_epsilon(concave, 0.1)
        ok = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
        with pytest.raises(ValueError):
            build_g_epsilon(ok, -0.2)


class TestSerialization:
    """The curve file format, owned by ExtractabilityCurve."""

    @staticmethod
    def _curve(xs, ys, **meta):
        fields = dict(delta=0.05, mode="paper", penalty=0.4) | meta
        return ExtractabilityCurve(functional=chsh(), omegas=np.array(xs), values=np.array(ys), **fields)

    def test_json_round_trip(self):
        xs = np.array([2.0, 2.3, 2.0 * RT2])
        ys = np.array([0.5, 0.61, 1.0])
        text = self._curve(xs, ys).to_json()
        back = ExtractabilityCurve.from_json(text)
        assert json.loads(text)["functional"] == "chsh"
        assert np.array_equal(back.omegas, xs)
        assert np.array_equal(back.values, ys)
        assert back.delta == 0.05

    def test_json_tolerates_extra_keys(self):
        payload = json.loads(self._curve([2.0, 2.5], [0.5, 0.6]).to_json())
        payload["manifest"] = "abc123"
        back = ExtractabilityCurve.from_json(json.dumps(payload))
        assert back.functional.name == "chsh"
        assert back.omegas.size == 2

    def test_csv_format(self):
        text = self._curve([2.0, 2.5], [0.5, 0.75]).to_csv(comment="hello")
        lines = text.splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "omega,value"
        assert lines[2] == "2.0,0.5"
        data = np.loadtxt(text.splitlines()[2:], delimiter=",")
        assert data.shape == (2, 2)
