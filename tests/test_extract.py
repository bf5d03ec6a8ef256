import math

import numpy as np
import pytest

from discert import extract
from discert.bellops import AnglePair, bell_operator, chsh
from discert.extract import (
    OMEGA_STAR,
    ExtractabilityCurve,
    GridSpec,
    analytic_curve,
    bardyn_locc,
    kaniewski_lo,
    xi_lower_bound,
)
from discert.envelope import PiecewiseLinear, build_g_epsilon
from oracles import feasible_cells, solve_one, weak_duality_witness

RT2 = math.sqrt(2.0)
S2 = 2.0 * RT2


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(delta=0.0)
        with pytest.raises(ValueError):
            GridSpec(delta=-0.1)
        with pytest.raises(ValueError):
            GridSpec(delta=math.pi / 4 + 0.01)
        with pytest.raises(ValueError):
            GridSpec(delta=0.1, mode="loose")
        with pytest.raises(ValueError):
            GridSpec(knots=1)

    def test_penalty_modes(self):
        # CHSH Lipschitz pair sums to 8, so the cell slack is 8 delta
        # for double-width cells and half that for nearest-point cells
        assert GridSpec(delta=0.05, mode="paper").penalty(chsh()) == pytest.approx(0.4)
        assert GridSpec(delta=0.05, mode="tight").penalty(chsh()) == pytest.approx(0.2)

    def test_angle_values_cover_quarter_turn(self):
        vals = GridSpec(delta=0.05).angle_values()
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(math.pi / 2)
        assert np.max(np.diff(vals)) <= 0.05 + 1e-12

    def test_knots_default_and_custom(self):
        f = chsh()
        ks = GridSpec(delta=0.1).knots_for(f)
        assert ks.size == 65
        assert ks[0] == pytest.approx(2.0)
        assert ks[-1] == pytest.approx(S2)
        assert np.array_equal(GridSpec(delta=0.1, knots=5).knots_for(f), np.linspace(2.0, S2, 5))


class TestFeasibleCells:
    def test_unreachable_score_gives_no_cells(self):
        g = GridSpec(delta=0.3, mode="tight")
        assert feasible_cells(chsh(), S2 + g.penalty(chsh()) + 0.1, g) == []

    def test_zero_score_keeps_every_pair(self):
        g = GridSpec(delta=0.3)
        n = g.angle_values().size
        assert len(feasible_cells(chsh(), 0.0, g)) == n * n

    def test_threshold_separates_cells(self):
        g = GridSpec(delta=0.05, mode="paper")
        cells = feasible_cells(chsh(), 2.8, g)
        # threshold 2.8 - 0.4: the optimal pair (max 2 sqrt 2) stays, the
        # aligned pair (max 2) drops out
        assert any(
            abs(c.a - math.pi / 4) < 1e-9 and abs(c.b - math.pi / 4) < 1e-9 for c in cells
        )
        assert not any(abs(c.a) < 1e-12 and abs(c.b) < 1e-12 for c in cells)


class TestSweep:
    def test_curve_invariants(self, curve_01):
        c = curve_01
        assert c.omegas.size == 65
        assert np.all(c.values >= 0.5 - 1e-12)
        assert np.all(c.values <= 1.0 + 1e-12)
        assert np.all(np.diff(c.values) >= -1e-12)
        slopes = np.diff(c.values) / np.diff(c.omegas)
        assert np.all(np.diff(slopes) >= -1e-9)
        # never above the exact two-way bound
        ana = np.array([bardyn_locc(w) for w in c.omegas])
        assert np.all(c.values <= ana + 1e-6)
        assert c.evaluate(2.0) == pytest.approx(0.5, abs=1e-12)

    def test_floor_left_of_first_knot(self, curve_01):
        assert curve_01.evaluate(1.9) == 0.5
        assert curve_01.evaluate(-S2) == 0.5

    def test_envelope_below_raw_minima(self, curve_01):
        raw = np.clip(curve_01.raw_values, 0.5, 1.0)
        assert np.all(curve_01.values <= raw + 1e-12)

    def test_argmin_witnesses(self, curve_01):
        c = curve_01
        assert len(c.argmin_cells) == c.omegas.size
        assert len(c.argmin_solutions) == c.omegas.size
        for ki in (16, 40, 64):
            cell = c.argmin_cells[ki]
            sol = c.argmin_solutions[ki]
            b, omega = bell_operator(c.functional, cell), float(c.omegas[ki]) - c.penalty
            assert abs(solve_one(b, omega).value - c.raw_values[ki]) < 1e-9
            assert weak_duality_witness(sol, b, omega, samples=500)

    def test_refinement_raises_curve(self, curve_01, curve_02):
        # halving the angle step halves the penalty, so every knot of the
        # finer sweep certifies at least as much
        assert np.array_equal(curve_01.omegas, curve_02.omegas)
        assert np.all(curve_01.values >= curve_02.values - 1e-9)

    def test_tight_mode_dominates_paper(self):
        a = xi_lower_bound(chsh(), GridSpec(delta=0.25, mode="paper", knots=5), workers=1)
        b = xi_lower_bound(chsh(), GridSpec(delta=0.25, mode="tight", knots=5), workers=1)
        assert np.all(b.values >= a.values - 1e-12)

    def test_parallel_matches_serial(self, monkeypatch):
        # delta 0.05 with two knots solves all 561 cells in one call at the
        # lower knot; calls of >= 512 rows are split over the pool, smaller
        # calls never reach it
        pool_maps = []

        class RecordingPool(extract.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                pool_maps.append(fn)
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(extract, "ProcessPoolExecutor", RecordingPool)
        spec = GridSpec(delta=0.05, knots=2)
        a = xi_lower_bound(chsh(), spec, workers=1)
        b = xi_lower_bound(chsh(), spec, workers=2)
        assert pool_maps, "the pooled path did not run"
        assert a.to_json() == b.to_json()
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.raw_values, b.raw_values)


class TestCurveObject:
    def test_json_round_trip(self, curve_01):
        back = ExtractabilityCurve.from_json(curve_01.to_json())
        assert np.array_equal(back.omegas, curve_01.omegas)
        assert np.array_equal(back.values, curve_01.values)
        assert back.delta == curve_01.delta
        assert back.mode == curve_01.mode
        assert back.penalty == curve_01.penalty
        assert back.functional.name == "chsh"

    def test_from_json_unknown_functional_needs_object(self, curve_01):
        doc = curve_01.to_json().replace('"chsh"', '"mystery"')
        with pytest.raises(ValueError):
            ExtractabilityCurve.from_json(doc)
        back = ExtractabilityCurve.from_json(doc, functional=chsh())
        assert np.array_equal(back.values, curve_01.values)

    def test_csv_round_trip(self, curve_01):
        text = curve_01.to_csv(comment="sweep")
        lines = text.splitlines()
        assert lines[0] == "# sweep"
        assert lines[1] == "omega,value"
        data = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(data[:, 0], curve_01.omegas)
        assert np.array_equal(data[:, 1], curve_01.values)

    def test_meta_fields(self, curve_01):
        m = curve_01.meta()
        assert m["delta"] == 0.1
        assert m["mode"] == "paper"
        assert m["penalty"] == pytest.approx(0.8)
        assert m["floor"] == 0.5

    def test_g_epsilon_hook(self, curve_01):
        g = build_g_epsilon(curve_01, 0.1)
        assert isinstance(g, PiecewiseLinear)
        assert g(S2) <= math.sqrt(0.5)

    def test_validation(self):
        f = chsh()
        ok = dict(functional=f, delta=0.1, mode="paper", penalty=0.8)
        with pytest.raises(ValueError):
            ExtractabilityCurve(omegas=np.array([2.0]), values=np.array([0.5]), **ok)
        with pytest.raises(ValueError):
            ExtractabilityCurve(
                omegas=np.array([2.0, 2.0]), values=np.array([0.5, 0.6]), **ok
            )
        with pytest.raises(ValueError):
            ExtractabilityCurve(
                omegas=np.array([2.0, 2.5]), values=np.array([0.4, 0.6]), **ok
            )
        with pytest.raises(ValueError):
            ExtractabilityCurve(
                omegas=np.array([2.0, 2.5]), values=np.array([0.5, 1.1]), **ok
            )
        with pytest.raises(ValueError):
            ExtractabilityCurve(
                omegas=np.array([2.0, 2.5]), values=np.array([0.6, 0.5]), **ok
            )
        with pytest.raises(ValueError):
            ExtractabilityCurve(
                omegas=np.array([2.0, 2.4, S2]),
                values=np.array([0.5, 0.9, 1.0]),
                **ok,
            )
        # NaN compares False everywhere, so it needs its own check
        for om, va in (([2.0, 2.5], [0.5, np.nan]), ([2.0, np.nan], [0.5, 0.6]), ([2.0, np.inf], [0.5, 0.6])):
            with pytest.raises(ValueError):
                ExtractabilityCurve(omegas=np.array(om), values=np.array(va), **ok)


class TestAnalytic:
    def test_two_way_bound(self):
        assert bardyn_locc(2.0) == 0.5
        assert bardyn_locc(S2) == 1.0
        mid = (2.0 + S2) / 2.0
        assert bardyn_locc(mid) == pytest.approx(0.75)

    def test_one_way_bound(self):
        assert kaniewski_lo(2.05) == 0.5
        assert kaniewski_lo(OMEGA_STAR) == pytest.approx(0.5)
        assert kaniewski_lo(S2) == pytest.approx(1.0)
        mid = (OMEGA_STAR + S2) / 2.0
        assert kaniewski_lo(mid) == pytest.approx(0.75)

    def test_one_way_below_two_way(self):
        for w in np.linspace(2.0, S2, 50):
            assert kaniewski_lo(w) <= bardyn_locc(w) + 1e-12

    def test_range_checks(self):
        for bad in (1.99, S2 + 1e-6, -3.0):
            with pytest.raises(ValueError):
                bardyn_locc(bad)
            with pytest.raises(ValueError):
                kaniewski_lo(bad)
        with pytest.raises(ValueError):
            analytic_curve("unknown")

    def test_analytic_curve_objects(self):
        b = analytic_curve("bardyn_locc")
        assert np.array_equal(b.omegas, [2.0, S2])
        assert np.array_equal(b.values, [0.5, 1.0])
        k = analytic_curve("kaniewski_lo")
        assert np.array_equal(k.omegas, [2.0, OMEGA_STAR, S2])
        assert np.array_equal(k.values, [0.5, 0.5, 1.0])
        for c in (b, k):
            assert c.functional.name == "chsh"
            assert (c.delta, c.mode, c.penalty) == (0.0, "analytic", 0.0)
            assert c(-1.0) == 0.5  # trivial bound left of the first knot
        # the knot curves are the closed forms, up to interpolation rounding
        grid = np.linspace(2.0, S2, 201)
        assert np.allclose(b(grid), [bardyn_locc(w) for w in grid], rtol=0.0, atol=1e-15)
        assert np.allclose(k(grid), [kaniewski_lo(w) for w in grid], rtol=0.0, atol=1e-15)
