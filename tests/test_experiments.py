"""Tests for the experiment drivers.

The continuation worked values are hand-derived from the recurrence; the
growth worked values come from the exact 2x2 mode eigenvalues, its Jordan
point from scipy's dense exponential at every sample time, and its blocked
running maxima from one unblocked pass; existence runs are checked against
`solve` at the scaled threshold; sweep fits are exercised on synthetic rows
because the physical rescaled runs below stay bounded (that fact itself is
asserted where it matters); the blocked normal_history and
normal_frame_columns are checked against to_normal_coords, norm and
cancellation_residual per sample, the blocked norm_domination_margin against
the per-sample loop it replaced, and verify_legs' cancellation maxima against
the per-state cancellation_residual loop it replaced.  The blocked
lemma_m_suite is held to its per-field loop (per_field_lemma_m) and the
jet-bound leg to its per-pair verify_fn_bound loop, both with == and with
the generator's state after the draws; the fault-injection hook corrupts a
coefficient stack.
"""

import concurrent.futures
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from wavereg import experiments
from wavereg.experiments import (
    ContinuationSchedule,
    DatumSpec,
    SweepRow,
    continuation_schedule,
    existence_run,
    existence_time,
    fit_existence_times,
    growth_experiment,
    lemma_m_suite,
    make_datum,
    norm_domination_margin,
    normal_frame_columns,
    normal_history,
    scaling_sweep,
    sobolev_constant,
    verify_legs,
)
from wavereg.integrate import IntegratorConfig, Trajectory, _mode_exponential, solve
from wavereg.jets_ibp import verify_fn_bound
from wavereg.model import PressureLaw, State, SystemSpec, energy
from wavereg.normalform import (
    NormalFormSetting,
    from_normal_coords,
    to_normal_coords,
)
from wavereg.spectral import (
    _BLOCK_POINTS,
    Grid,
    SpectralField,
    _blocks,
    apply_m,
    conjugate,
    derivative,
    from_modes,
    norm,
    random_field,
    remove_mean,
    to_physical,
)

from oracles import cancellation_residual

ALL_LAWS = [
    (PressureLaw.P0, False),
    (PressureLaw.P1, False),
    (PressureLaw.P2, False),
    (PressureLaw.P0, True),
]


class TestDatumSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_norm=1.0 / 6.0),
            dict(target_norm=0.0),
            dict(target_norm=-0.1),
            dict(target_norm=0.3),
            dict(mode_band=(0, 8)),
            dict(mode_band=(5, 3)),
            dict(law=PressureLaw.P1, conjugated=True),
            dict(law=PressureLaw.P2, conjugated=True),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(seed=1, target_norm=0.15, law=PressureLaw.P0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DatumSpec(**base)

    def test_accepts_conjugated_p0(self):
        DatumSpec(seed=1, target_norm=0.1, law=PressureLaw.P0, conjugated=True)


class TestMakeDatum:
    @pytest.mark.parametrize("law,conjugated", ALL_LAWS)
    def test_norms_and_certificate(self, law, conjugated):
        grid = Grid(32)
        spec = DatumSpec(seed=7, target_norm=0.15, law=law, conjugated=conjugated)
        state = make_datum(grid, spec)
        n1 = norm(state.u1, "Hs", s=1.0)
        n2 = norm(state.u2, "L2")
        assert abs(n1 - 0.15) < 1e-12
        assert n2 <= 0.15 + 1e-12
        assert abs(max(n1, n2) - 0.15) < 1e-12
        assert abs(state.u1.coeff(0)) == 0.0
        assert abs(state.u2.coeff(0)) == 0.0
        # independent certificate evaluation, not trusting the constructor
        assert energy(law, state).value < 0.0

    def test_profiles_are_real_valued(self):
        grid = Grid(16)
        spec = DatumSpec(seed=3, target_norm=0.12, law=PressureLaw.P2)
        state = make_datum(grid, spec)
        for field in (state.u1, state.u2):
            assert np.allclose(field.coeffs, np.conj(field.coeffs[::-1]), atol=1e-15)

    def test_band_is_respected(self):
        grid = Grid(16)
        spec = DatumSpec(
            seed=5, target_norm=0.1, law=PressureLaw.P1, mode_band=(2, 5)
        )
        state = make_datum(grid, spec)
        ks = np.abs(grid.wavenumbers)
        outside = (ks < 2) | (ks > 5)
        assert np.all(state.u1.coeffs[outside] == 0.0)
        assert np.all(state.u2.coeffs[outside] == 0.0)
        assert np.any(state.u1.coeffs[~outside] != 0.0)

    def test_deterministic_per_seed(self):
        grid = Grid(16)
        spec = DatumSpec(seed=42, target_norm=0.15, law=PressureLaw.P1)
        a = make_datum(grid, spec)
        b = make_datum(grid, spec)
        assert np.array_equal(a.u1.coeffs, b.u1.coeffs)
        assert np.array_equal(a.u2.coeffs, b.u2.coeffs)
        other = make_datum(grid, DatumSpec(seed=43, target_norm=0.15, law=PressureLaw.P1))
        assert not np.array_equal(a.u1.coeffs, other.u1.coeffs)

    def test_band_must_fit_grid(self):
        grid = Grid(4)
        spec = DatumSpec(seed=1, target_norm=0.1, law=PressureLaw.P0, mode_band=(1, 8))
        with pytest.raises(ValueError, match="band"):
            make_datum(grid, spec)


class TestExistenceTime:
    def _system(self, eps=0.2, amp=1.0):
        return SystemSpec("regularized", eps, rescaled=True, amplitude=amp)

    def test_zero_datum_never_crosses(self):
        grid = Grid(8)
        zero = State(from_modes(grid, {}), from_modes(grid, {}))
        config = IntegratorConfig(dt=1e-3, t_end=0.01)
        t, status = existence_time(self._system(), PressureLaw.P0, zero, config)
        assert t is None and status == "completed"

    def test_small_datum_stays_neutral(self):
        grid = Grid(16)
        spec = DatumSpec(seed=2, target_norm=0.01, law=PressureLaw.P0)
        datum = make_datum(grid, spec)
        config = IntegratorConfig(dt=1e-3, t_end=0.05)
        t, status = existence_time(self._system(), PressureLaw.P0, datum, config)
        assert t is None and status == "completed"

    def test_threshold_is_stated_in_profile_units(self):
        grid = Grid(16)
        profile = make_datum(
            grid, DatumSpec(seed=2, target_norm=0.15, law=PressureLaw.P0)
        )
        amp = 0.5
        config = IntegratorConfig(dt=1e-3, t_end=0.05)
        # rho_max below the profile size crosses immediately, even though the
        # raw state norm 0.075 never approaches 1
        t, status = existence_time(
            self._system(amp=amp), PressureLaw.P0, amp * profile, config, rho_max=0.12
        )
        assert status == "blowup" and t is not None and t < 0.05
        # and a threshold above it never crosses
        t, status = existence_time(
            self._system(amp=amp), PressureLaw.P0, amp * profile, config, rho_max=2.0
        )
        assert t is None and status == "completed"

    def test_rejects_nonpositive_rho(self):
        grid = Grid(8)
        zero = State(from_modes(grid, {}), from_modes(grid, {}))
        config = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError, match="rho_max"):
            existence_time(self._system(), PressureLaw.P0, zero, config, rho_max=0.0)


class TestExistenceRun:
    """The one recipe behind simulate, the sweep and existence_time."""

    @pytest.mark.parametrize("rho_max,status", [(0.12, "blowup"), (2.0, "completed")])
    def test_is_solve_at_the_scaled_threshold(self, rho_max, status):
        amp = 0.5
        profile = make_datum(
            Grid(16), DatumSpec(seed=2, target_norm=0.15, law=PressureLaw.P0)
        )
        system = SystemSpec("regularized", 0.2, rescaled=True, amplitude=amp)
        config = IntegratorConfig(dt=1e-3, t_end=0.05, store_every=5)
        run = existence_run(system, PressureLaw.P0, amp * profile, config, rho_max)
        oracle = solve(
            system, PressureLaw.P0, amp * profile,
            IntegratorConfig(dt=1e-3, t_end=0.05, blowup_threshold=rho_max * amp,
                             store_every=5),
        )
        assert run.terminal_status == oracle.terminal_status == status
        assert run.blowup_time == oracle.blowup_time
        assert run.times == oracle.times
        assert run.diagnostics == oracle.diagnostics
        for a, b in zip(run.states, oracle.states, strict=True):
            assert np.array_equal(a.u1.coeffs, b.u1.coeffs)
            assert np.array_equal(a.u2.coeffs, b.u2.coeffs)
        assert existence_time(
            system, PressureLaw.P0, amp * profile, config, rho_max
        ) == (run.blowup_time, run.terminal_status)

    @pytest.mark.parametrize("rho_max", [0.0, -1.0, float("nan")])
    def test_rejects_a_threshold_that_is_not_positive(self, rho_max):
        grid = Grid(8)
        zero = State(from_modes(grid, {}), from_modes(grid, {}))
        system = SystemSpec("regularized", 0.2, rescaled=True)
        message = f"rho_max must be positive, got {rho_max}"
        with pytest.raises(ValueError, match=re.escape(message)):
            existence_run(system, PressureLaw.P0, zero,
                          IntegratorConfig(dt=1e-3, t_end=0.01), rho_max)


class TestFitExistenceTimes:
    def _row(self, eps, time, status="blowup"):
        return SweepRow(eps, time, status, 1.0, 1.0)

    def test_exact_square_law(self):
        rows = [self._row(e, 3.0 * e**2) for e in (0.2, 0.1, 0.05, 0.025)]
        slope, intercept, residual, message = fit_existence_times(rows)
        assert abs(slope - 2.0) < 1e-12
        assert abs(intercept - math.log(3.0)) < 1e-12
        assert residual < 1e-13
        assert message == ""

    def test_too_few_blowups(self):
        rows = [
            self._row(0.2, 0.1),
            self._row(0.1, 0.05),
            self._row(0.05, None, status="completed"),
        ]
        slope, _, _, message = fit_existence_times(rows)
        assert slope is None
        assert "2 blow-up" in message

    def test_all_completed(self):
        rows = [self._row(e, None, status="completed") for e in (0.2, 0.1, 0.05)]
        assert fit_existence_times(rows)[3] == "no blow-up observed"

    def test_diverged_is_reported_distinctly(self):
        rows = [
            self._row(0.2, None, status="completed"),
            self._row(0.1, None, status="completed"),
            self._row(0.05, None, status="diverged"),
        ]
        slope, _, _, message = fit_existence_times(rows)
        assert slope is None
        assert "diverged" in message

    def test_all_blowups_at_time_zero_are_not_fitted(self):
        # a datum above the threshold crosses at t = 0, which has no log
        rows = [self._row(e, 0.0) for e in (0.2, 0.1, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_existence_times(rows) == (None, None, None, (
                "3 blow-up run(s), 3 at time 0, and 0 diverged run(s) among 3; "
                "slope not fitted"))

    def test_time_zero_row_is_left_out_of_the_fit(self):
        timed = [self._row(e, 3.0 * e**2) for e in (0.2, 0.1, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_existence_times(timed + [self._row(0.025, 0.0)])
        assert got == fit_existence_times(timed)
        assert abs(got[0] - 2.0) < 1e-12
        assert got[3] == ""


class TestScalingSweep:
    def test_small_amplitude_family_never_exits(self):
        spec = DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        result = scaling_sweep(
            PressureLaw.P1,
            "regularized",
            (0.2, 0.1, 0.05),
            spec,
            amplitude_exponent=0.5,
            t_end=0.3,
            dt=2e-3,
            n_modes=16,
        )
        assert [row.epsilon for row in result.rows] == [0.2, 0.1, 0.05]
        assert all(row.status == "completed" for row in result.rows)
        assert result.slope is None
        assert result.message == "no blow-up observed"
        for row in result.rows:
            # terminal norms are reported in profile units
            assert 0.10 < row.final_norm1 < 0.20
            assert row.final_norm2 < 0.20

    def test_process_pool_matches_serial(self):
        spec = DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        kwargs = dict(
            amplitude_exponent=0.5, t_end=0.05, dt=5e-3, n_modes=16, store_every=4
        )
        serial = scaling_sweep(
            PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec, **kwargs
        )
        pooled = scaling_sweep(
            PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec, jobs=2, **kwargs
        )
        assert serial == pooled

    @pytest.mark.parametrize("jobs,workers", [(1, None), (2, 2), (3, 3), (64, 3)])
    def test_pool_capped_at_run_count(self, monkeypatch, jobs, workers):
        # a stand-in pool that records its size and maps serially, so no
        # worker process is ever started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *tasks):
                return map(fn, *tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        result = scaling_sweep(
            PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec,
            amplitude_exponent=0.5, t_end=0.01, dt=5e-3, n_modes=8, jobs=jobs,
        )
        assert sizes == ([] if workers is None else [workers])
        assert len(result.rows) == 3

    def test_builds_the_datum_once(self, monkeypatch):
        calls = []

        def counting_make_datum(grid, spec):
            calls.append(spec)
            return make_datum(grid, spec)

        monkeypatch.setattr(experiments, "make_datum", counting_make_datum)
        spec = DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        result = scaling_sweep(
            PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec,
            amplitude_exponent=0.5, t_end=0.01, dt=5e-3, n_modes=8,
        )
        assert calls == [spec]
        assert len(result.rows) == 3

    @pytest.mark.parametrize("kind,law,rule", [
        ("modified", PressureLaw.P0, dict(amplitude=0.2)),  # sweep-modified-k64
        ("regularized", PressureLaw.P1, dict(amplitude_exponent=0.5)),
    ])
    def test_final_norms_are_the_last_samples_norms(self, kind, law, rule):
        # eps = 0.2 crosses rho_max and the others complete; each row's
        # norms are those of its run's last stored state, by norm
        spec = DatumSpec(3, 0.15, law, (1, 8), kind == "modified")
        result = scaling_sweep(
            law, kind, (0.2, 0.1, 0.05), spec, **rule, t_end=3.0, dt=0.02,
            time_scale="eps_squared", rho_max=0.152, n_modes=64,
        )
        assert [row.status for row in result.rows] == ["blowup", "completed", "completed"]
        profile = make_datum(Grid(64), spec)
        for row in result.rows:
            eps = row.epsilon
            amp = rule["amplitude"] if "amplitude" in rule else eps ** rule["amplitude_exponent"]
            config = IntegratorConfig(dt=0.02 * eps**2, t_end=3.0 * eps**2, store_every=16)
            system = SystemSpec(kind, eps, rescaled=True, amplitude=amp)
            last = existence_run(system, law, amp * profile, config, 0.152).states[-1]
            assert row.final_norm1 == norm(last.u1, "Hs", s=1.0) / amp
            assert row.final_norm2 == norm(last.u2, "L2") / amp

    def test_rows_do_not_depend_on_store_every(self):
        # a row reads its run's crossing and its last sample only, so the
        # samples stored between them move nothing (sweep-modified-k64)
        spec = DatumSpec(3, 0.15, PressureLaw.P0, (1, 8), True)
        results = [
            scaling_sweep(PressureLaw.P0, "modified", (0.2, 0.1, 0.05), spec,
                          amplitude=0.2, t_end=3.0, dt=0.02, time_scale="eps_squared",
                          rho_max=0.152, n_modes=64, store_every=store_every)
            for store_every in (1, 16, 1000)
        ]
        assert [row.status for row in results[0].rows] == ["blowup", "completed", "completed"]
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("store_every", [1, 16])
    def test_runs_store_only_the_samples_a_row_reads(self, monkeypatch, store_every):
        # each run keeps its datum and its end or crossing sample, and forms
        # the diagnostics of those alone, whatever the stride
        trajectories = []

        def recording_run(*args, **kwargs):
            trajectories.append(existence_run(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(experiments, "existence_run", recording_run)
        spec = DatumSpec(3, 0.15, PressureLaw.P0, (1, 8), True)
        result = scaling_sweep(PressureLaw.P0, "modified", (0.2, 0.1, 0.05), spec,
                               amplitude=0.2, t_end=3.0, dt=0.02, time_scale="eps_squared",
                               rho_max=0.152, n_modes=64, store_every=store_every)
        assert [row.status for row in result.rows] == ["blowup", "completed", "completed"]
        assert len(trajectories) == 3
        for trajectory in trajectories:
            assert len(trajectory.times) == len(trajectory.states) <= 3
            assert len(trajectory.diagnostics) == len(trajectory.states)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_rejects_rho_max_before_any_work(self, monkeypatch, jobs):
        # the rule is checked with the other arguments, before the profile
        # is built and before a process pool starts
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the argument checks")

        monkeypatch.setattr(experiments, "make_datum", unreachable)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
        spec = DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        with pytest.raises(ValueError, match=r"^rho_max must be positive, got 0\.0$"):
            scaling_sweep(
                PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec,
                amplitude_exponent=0.5, n_modes=8, rho_max=0.0, jobs=jobs,
            )

    def test_rejects_rho_max_through_the_recipe(self):
        spec = DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        with pytest.raises(ValueError, match=r"^rho_max must be positive, got 0\.0$"):
            scaling_sweep(
                PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec,
                amplitude_exponent=0.5, t_end=0.01, dt=5e-3, n_modes=8, rho_max=0.0,
            )

    def test_fixed_amplitude_modified_runs(self):
        spec = DatumSpec(
            seed=11, target_norm=0.15, law=PressureLaw.P0, conjugated=True
        )
        result = scaling_sweep(
            PressureLaw.P0,
            "modified",
            (0.2, 0.1, 0.05),
            spec,
            amplitude=0.2,
            t_end=0.05,
            dt=2e-3,
            n_modes=16,
        )
        assert result.message == "no blow-up observed"

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(epsilons=(0.2, 0.1)), "three"),
            (dict(epsilons=(0.2, 0.2, 0.1)), "distinct"),
            (dict(epsilons=(0.2, 0.1, 1.5)), "epsilon"),
            (dict(amplitude=0.3), "exactly one"),
            (dict(amplitude_exponent=None), "exactly one"),
            (dict(amplitude_exponent=-1.0), "nonnegative"),
            (dict(time_scale="cubic"), "time_scale"),
            (dict(jobs=0), "jobs must be at least 1, got 0"),
            (dict(jobs=-3), "jobs must be at least 1, got -3"),
            (dict(amplitude_exponent=math.nan), "^amplitude_exponent must be finite, got nan$"),
            (dict(amplitude_exponent=math.inf), "^amplitude_exponent must be finite, got inf$"),
            (dict(amplitude_exponent=None, amplitude=math.nan),
             "^amplitude must be finite, got nan$"),
            (dict(amplitude_exponent=None, amplitude=math.inf),
             "^amplitude must be finite, got inf$"),
            # 0.2**1000 underflows to 0.0
            (dict(amplitude_exponent=1000.0),
             r"^amplitude_exponent 1000\.0 underflows the amplitude to 0 at epsilon 0\.2$"),
            # each run's SystemSpec and IntegratorConfig reject these, and
            # are built with the checks
            (dict(dt=0.0), "^dt must be positive, got 0.0$"),
            (dict(t_end=math.nan), "^t_end must be finite, got nan$"),
            (dict(store_every=0), "^store_every must be at least 1, got 0$"),
            (dict(kind="bogus"), "^unknown system kind 'bogus'$"),
            # 5e-324 * 0.2**2 underflows the scaled dt to 0
            (dict(dt=5e-324, time_scale="eps_squared"), "^dt must be positive, got 0.0$"),
            # a store_every that is not an integer
            (dict(store_every=1.5), "^store_every must be an integer, got 1.5$"),
            (dict(store_every=math.nan), "^store_every must be an integer, got nan$"),
            (dict(store_every=math.inf), "^store_every must be an integer, got inf$"),
        ],
    )
    def test_validation(self, monkeypatch, kwargs, match):
        # every argument is checked before the profile is built and before
        # a process pool starts
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the argument checks")

        monkeypatch.setattr(experiments, "make_datum", unreachable)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
        spec = DatumSpec(seed=1, target_norm=0.1, law=PressureLaw.P0)
        base = dict(
            law=PressureLaw.P0,
            kind="regularized",
            epsilons=(0.2, 0.1, 0.05),
            spec=spec,
            amplitude_exponent=0.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            scaling_sweep(
                base.pop("law"), base.pop("kind"), base.pop("epsilons"),
                base.pop("spec"), **base,
            )


# finite inputs whose step count is far past the limit, and the count named
_HUGE_COUNTS = {
    (1e200, 0.01, 0.5, 1.0, 1.0): "inf",  # rho**2 is past the float range
    (0.5, 0.01, 0.5, 1.0, 1e308): "inf",
    (0.5, 0.01, 0.5, 1.0, 1e300): "1.25e+301",
    (0.5, 0.01, 0.5, 1e-300, 1.0): "1.2499999999999999e+301",
}


class TestContinuationSchedule:
    def test_worked_values(self):
        s = continuation_schedule(0.5, 0.01, 0.5, 1.0, 1.0)
        assert s.j_formula == 11
        assert len(s.rho_sequence) == 12 and len(s.time_sequence) == 12
        assert math.isclose(s.time_sequence[0], 0.02, rel_tol=1e-14)
        assert math.isclose(s.rho_sequence[1], 0.72, rel_tol=1e-14)
        # T_1 = 0.01 / (2 * 0.72^2)
        assert math.isclose(s.time_sequence[1], 0.01 / 1.0368, rel_tol=1e-14)
        assert math.isclose(s.t_star, 0.08665272599498827, rel_tol=1e-12)

    def test_budget_doubling_stops_at_step_seven(self):
        s = continuation_schedule(0.5, 0.01, 0.5, 1.0, 1.0)
        assert s.j_star == 7
        assert s.rho_sequence[7] <= 1.0 < s.rho_sequence[8]
        assert math.isclose(s.rho_sequence[7], 0.9804072973760545, rel_tol=1e-12)
        assert math.isclose(s.rho_sequence[8], 1.0116183333643551, rel_tol=1e-12)

    def test_monotone_and_positive(self):
        s = continuation_schedule(0.5, 0.01, 0.5, 1.0, 1.0)
        rhos = np.array(s.rho_sequence)
        assert np.all(np.diff(rhos) > 0.0)
        assert all(t > 0.0 for t in s.time_sequence)

    def test_per_step_bracket_up_to_j_star(self):
        s = continuation_schedule(0.5, 0.01, 0.5, 1.0, 1.0)
        lower = 0.01 / (2.0 * 1.0 * (2.0 * 0.5) ** 2)
        for k in range(s.j_star + 1):
            assert s.time_sequence[k] >= lower

    def test_total_time_lower_bounds(self):
        s = continuation_schedule(0.5, 0.01, 0.5, 1.0, 1.0)
        assert s.t_star >= s.j_formula * 0.01 / (2.0 * (2.0 * 0.5) ** 2)  # 0.055
        assert s.t_star >= 1.0 / (16.0 * 1.0)  # 0.0625

    def test_step_count_grows_as_epsilon_shrinks(self):
        counts = [
            continuation_schedule(0.5, eps, 0.5, 1.0, 1.0).j_formula
            for eps in (0.02, 0.01, 0.005)
        ]
        assert counts == sorted(counts) and counts[0] < counts[-1]

    def test_matches_the_literal_recurrence(self):
        # 1249 steps; the oracle re-sums the earlier step lengths each step
        s = continuation_schedule(0.5, 0.01, 0.0, 1.0, 1.0)
        assert s.j_formula == 1249
        times = []
        for j, rho_j in enumerate(s.rho_sequence):
            expected = 0.5 if j == 0 else 1.2 * 0.5 + 12.0 * 0.5 * sum(times)
            assert math.isclose(rho_j, expected, rel_tol=1e-13)
            times.append(0.01**2 / (2.0 * rho_j**2))
        assert list(s.time_sequence) == times
        assert math.isclose(s.t_star, sum(times), rel_tol=1e-13)

    def test_alpha_zero_grain(self):
        s = continuation_schedule(0.5, 0.05, 0.0, 1.0, 1.0)
        assert math.isclose(s.time_sequence[0], 0.05**2 / 0.5, rel_tol=1e-14)

    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 0.5, 0.5, 1.0, 1.0),  # step count below 1
            (0.0, 0.01, 0.5, 1.0, 1.0),
            (-0.3, 0.01, 0.5, 1.0, 1.0),
            (0.5, 1.5, 0.5, 1.0, 1.0),
            (0.5, 0.01, 1.5, 1.0, 1.0),
            (0.5, 0.01, 0.5, 0.0, 1.0),
            (0.5, 0.01, 0.5, 1.0, -2.0),
            (math.inf, 0.01, 0.5, 1.0, 1.0),
            (math.nan, 0.01, 0.5, 1.0, 1.0),
            (0.5, 0.01, 0.5, math.inf, 1.0),
            (0.5, 0.01, 0.5, math.nan, 1.0),
            (0.5, 0.01, 0.5, 1.0, math.inf),
            (0.5, 0.01, 0.5, 1.0, math.nan),
            *_HUGE_COUNTS,
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError) as raised:
            continuation_schedule(*args)
        # a non-finite rho or constant is named before the step count is formed
        names = ("rho", None, None, "growth_constant", "step_constant")
        for name, value in zip(names, args):
            if name and not math.isfinite(value):
                assert str(raised.value) == f"{name} must be finite, got {value}"
        if args in _HUGE_COUNTS:
            assert str(raised.value) == (
                f"step count {_HUGE_COUNTS[args]} exceeds the limit 1000000")

    def test_budget_square_past_the_float_range_names_rho(self):
        # the count check passes (719,999 steps); the budget after the first
        # step, about 1.2 rho, has no finite square
        with pytest.raises(ValueError, match=r"^rho 1\.2e\+154 is too large for these "
                                             r"constants: the budget 1\.44.*e\+154 has "
                                             r"no finite square$"):
            continuation_schedule(1.2e154, 0.5, 1.0, growth_constant=100.0,
                                  step_constant=1e-300)

    def test_budget_past_the_float_range_names_rho_and_growth_constant(self):
        # 12 growth_constant rho is inf as a float product, so every budget
        # after the first would be inf and every time after the first 0.0
        with pytest.raises(ValueError, match=r"^rho 1e\+154 and growth_constant 1e\+154 "
                                             r"are too large: .* leaves the float range$"):
            continuation_schedule(1e154, 0.5, 1.0, growth_constant=1e154,
                                  step_constant=1e-150)

    def test_budget_product_at_the_edge_of_the_float_range(self):
        # 12 growth_constant rho is 1.44e308 at growth_constant 4e153, a
        # finite product, and the schedule completes; at 5e153 it is 1.8e308,
        # past the largest double, and the schedule is refused
        s = continuation_schedule(3e153, 0.5, 1.0, growth_constant=4e153,
                                  step_constant=1e-150)
        assert (s.j_formula, s.j_star) == (1124, 783)
        assert all(math.isfinite(r) for r in s.rho_sequence)
        with pytest.raises(ValueError, match=r"^rho 3e\+153 and growth_constant 5e\+153"):
            continuation_schedule(3e153, 0.5, 1.0, growth_constant=5e153,
                                  step_constant=1e-150)

    def test_step_limit(self, monkeypatch):
        # 0.5**2 / (2 * 0.01**2) - 1 = 1249 steps: allowed at a limit of
        # 1249, refused below it
        monkeypatch.setattr(experiments, "_MAX_SCHEDULE_STEPS", 1249)
        assert continuation_schedule(0.5, 0.01, 0.0).j_formula == 1249
        monkeypatch.setattr(experiments, "_MAX_SCHEDULE_STEPS", 1248)
        with pytest.raises(ValueError, match=r"^step count 1249\.0 exceeds the limit 1248$"):
            continuation_schedule(0.5, 0.01, 0.0)


class TestGrowthExperiment:
    def test_elliptic_worked_value(self):
        (row,) = growth_experiment(PressureLaw.P0, 0.0, [4])
        assert row.predicted == 4.0
        assert abs(row.measured - 4.0) <= 0.04

    def test_hyperbolic_point_is_neutral(self):
        (row,) = growth_experiment(PressureLaw.P0, 1.0, [4])
        assert row.predicted == 0.0
        assert abs(row.measured) <= 1e-6

    def test_rate_is_linear_in_wavenumber(self):
        rows = growth_experiment(PressureLaw.P0, 0.0, [2, 4, 8])
        measured = [row.measured for row in rows]
        assert abs(measured[1] / measured[0] - 2.0) < 0.02
        assert abs(measured[2] / measured[1] - 2.0) < 0.02
        assert [row.predicted for row in rows] == [2.0, 4.0, 8.0]

    def test_dispersion_lowers_the_measured_rate(self):
        (row,) = growth_experiment(PressureLaw.P0, 0.0, [4], epsilon=0.1)
        # exact dispersive rate: k sqrt(4 - eps^2 k^2) / 2 at p'(0) = -1
        exact = 4.0 * math.sqrt(4.0 - 0.01 * 16.0) / 2.0
        assert abs(row.measured - exact) < 1e-6
        assert row.measured < row.predicted

    def test_laws_share_the_real_axis_linearization(self):
        a = growth_experiment(PressureLaw.P0, 0.3, [2])
        b = growth_experiment(PressureLaw.P1, 0.3, [2])
        assert a[0].measured == b[0].measured
        assert a[0].predicted == b[0].predicted

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            growth_experiment(PressureLaw.P0, 0.0, [4], epsilon=-0.1)
        with pytest.raises(ValueError, match="samples"):
            growth_experiment(PressureLaw.P0, 0.0, [4], n_samples=50)
        with pytest.raises(ValueError, match=r"^n_samples must be an integer, got 200\.5$"):
            growth_experiment(PressureLaw.P0, 0.0, [4], n_samples=200.5)

    @pytest.mark.parametrize("u_star,epsilon,match", [
        (float("nan"), 0.0, "u_star"),
        (float("inf"), 0.0, "u_star"),
        (0.0, float("nan"), "epsilon"),
        (0.0, float("inf"), "epsilon"),
    ])
    def test_rejects_non_finite(self, u_star, epsilon, match):
        with pytest.raises(ValueError, match=match):
            growth_experiment(PressureLaw.P0, u_star, [4], epsilon=epsilon)

    @pytest.mark.parametrize("u_star,epsilon,k,name", [
        (1e160, 0.0, 1, "u_star 1e+160"),  # u_star**2 raises OverflowError
        (1e154, 0.0, 1, "u_star 1e+154"),  # p'(u_star) is inf: nan rates
        (0.0, 1e200, 1, "epsilon 1e+200"),  # nan rates
        (2e77, 0.0, 10**77, "u_star 2e+77"),  # within range at k = 1
    ], ids=["u-star-1e160", "u-star-1e154", "epsilon-1e200", "u-star-2e77-k-1e77"])
    def test_rejects_inputs_that_overflow_the_closed_form(self, u_star, epsilon, k, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                growth_experiment(PressureLaw.P0, u_star, [1, k], epsilon=epsilon)
        assert str(raised.value) == (
            f"{name} takes the closed form of wavenumber {k} past the float range")

    def test_rejects_a_wavenumber_past_the_float_range(self):
        with pytest.raises(ValueError, match="^wavenumber 10{160} takes the closed form "
                                             "past the float range$"):
            growth_experiment(PressureLaw.P0, 0.0, [10**160])

    def test_largest_accepted_inputs_give_finite_rates(self):
        # both terms just inside _GROWTH_TERM_MAX at once, without a warning
        limit = experiments._GROWTH_TERM_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = growth_experiment(
                PressureLaw.P0, 0.999999 * math.sqrt(limit / 3.0), [1],
                epsilon=0.999999 * math.sqrt(4.0 * limit), n_samples=1001)
            rows += growth_experiment(PressureLaw.P0, 0.0, [int(math.sqrt(limit))],
                                      n_samples=1001)
        assert all(math.isfinite(row.measured) for row in rows)

    @staticmethod
    def _unblocked_rate(u_star, k, epsilon, n_samples):
        """The rate from one closed-form call at all sample times and the
        full running maximum, as growth_experiment computed it unblocked."""
        predicted = k * math.sqrt(max(0.0, 1.0 - 3.0 * u_star**2))
        mode = (-1j * k, -1j * k * (-1.0 + 3.0 * u_star**2), 1j * epsilon * k**2)
        if predicted > 0.0:
            horizon = 16.0 / predicted
        else:
            omega = float(np.max(np.abs(np.imag(_mode_exponential(*mode, 0.0)[1]))))
            horizon = 15.0 * math.pi / max(omega, 1e-3)
        dt = horizon / (n_samples - 1)
        (e11, e12, e21, e22), _ = _mode_exponential(*mode, dt * np.arange(n_samples))
        z = np.array([1.0 + 0.0j, 0.5 + 0.5j])
        z /= np.linalg.norm(z)
        running = np.maximum.accumulate(
            np.hypot(abs(e11 * z[0] + e12 * z[1]), abs(e21 * z[0] + e22 * z[1])))
        half = (n_samples - 1) // 2
        return (math.log(running[-1]) - math.log(running[half])) / (
            dt * (n_samples - 1 - half))

    @pytest.mark.parametrize("u_star,k,epsilon", [
        (0.0, 4, 0.0),  # elliptic
        (0.0, 4, 0.1),  # elliptic, dispersion lowers the rate
        (1.0, 8, 0.05),  # stable dispersive: two frequencies
        (1.0, 4, 0.0),  # hyperbolic
        (0.5, 2, 0.5),  # Jordan point
    ])
    def test_blocks_equal_one_unblocked_pass(self, u_star, k, epsilon):
        block = experiments._GROWTH_BLOCK
        n_samples = 3 * block + 1001
        half = (n_samples - 1) // 2
        # the half-way sample and the last one fall inside blocks, not on edges
        assert 0 < half % block < block - 1 and 0 < (n_samples - 1) % block < block - 1
        (row,) = growth_experiment(
            PressureLaw.P0, u_star, [k], epsilon=epsilon, n_samples=n_samples
        )
        assert row.measured == self._unblocked_rate(u_star, k, epsilon, n_samples)

    def test_memory_does_not_grow_with_samples(self):
        # unblocked, the ten complex temporaries took about 150 bytes per
        # sample: a 76 MB peak here
        tracemalloc.start()
        try:
            growth_experiment(PressureLaw.P0, 0.0, [4], n_samples=500001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_neutral_points_hyperbolic_zero_dispersive_noise(self):
        # one frequency: the running maximum saturates in the first
        # revolution, so hyperbolic rows read 0.0 or rounding
        rows = growth_experiment(PressureLaw.P0, 1.0, [1, 2, 4, 8])
        assert [row.measured for row in rows] == [0.0] * 4
        hyperbolic = [
            row.measured for u_star in (0.7, 1.5, 2.0, 3.0)
            for row in growth_experiment(PressureLaw.P0, u_star, range(1, 17))
        ]
        assert max(abs(rate) for rate in hyperbolic) < 1e-14
        # two frequencies: stable dispersive rows read sampling noise, well
        # above rounding but far below any real rate
        # (u* = 0, k = 16 is elliptic without dispersion, stable with it)
        rows = growth_experiment(PressureLaw.P0, 1.0, [4, 8], epsilon=0.05)
        rows += growth_experiment(PressureLaw.P0, 0.0, [16], epsilon=0.5)
        assert all(1e-10 < row.measured < 1e-6 for row in rows)

    def test_jordan_point_matches_dense_exponential(self):
        # u* = 0.5, eps = 0.5, k = 2: the discriminant is exactly zero, both
        # eigenvalues are i, and |z(t)| grows linearly, not exponentially.
        (row,) = growth_experiment(PressureLaw.P0, 0.5, [2], epsilon=0.5)
        matrix = np.array([[0.0, -2j], [0.5j, 2j]])
        times = np.linspace(0.0, 16.0 / row.predicted, 20001)
        z = np.array([1.0 + 0.0j, 0.5 + 0.5j]) / math.sqrt(1.5)
        running = np.maximum.accumulate(
            [np.linalg.norm(expm(t * matrix) @ z) for t in times])
        half = times.size // 2
        oracle = math.log(running[-1] / running[half]) / (times[-1] - times[half])
        assert abs(row.measured - oracle) < 1e-12 * oracle
        assert abs(row.measured - 0.0849716224687) < 1e-12


class TestLemmaMSuite:
    def test_default_run_passes(self):
        report = lemma_m_suite(seed=20240817)
        assert report.passed
        assert report.n_fields == 100 and report.n_modes == 64
        # the names in the order of the docstring's identities
        assert list(report.residuals) == [
            "first_derivative_left",
            "first_derivative_right",
            "second_derivative_left",
            "second_derivative_right",
            "conjugation_parity",
            "sobolev_shift",
            "pointwise_bound",
        ]
        assert max(report.residuals.values()) < 1e-10

    def test_deterministic(self):
        a = lemma_m_suite(seed=5, n_fields=10)
        b = lemma_m_suite(seed=5, n_fields=10)
        assert a.residuals == b.residuals

    def test_fault_injection_breaks_first_derivative_identity(self):
        grid = Grid(64)

        def corrupted(coeffs):
            # apply_m on every row of the (rows, 2K+1) stack, mode -1 zeroed
            g = np.stack([apply_m(SpectralField(grid, row)).coeffs for row in coeffs])
            g[:, grid.index(-1)] = 0.0
            return g

        report = lemma_m_suite(seed=9, n_fields=10, multiplier=corrupted)
        assert not report.passed
        assert report.residuals["first_derivative_left"] > 0.1
        assert report.residuals["first_derivative_right"] > 0.1

    def test_needs_a_band(self):
        with pytest.raises(ValueError, match="n_modes"):
            lemma_m_suite(seed=1, n_modes=0)

    @pytest.mark.parametrize("n_fields", [0, -5])
    def test_needs_a_field(self, n_fields):
        # no draw leaves no residual, so no vacuous pass
        with pytest.raises(ValueError, match=f"^n_fields must be at least 1, got {n_fields}$"):
            lemma_m_suite(1, n_modes=8, n_fields=n_fields)

    def test_n_fields_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^n_fields must be an integer, got 2\.5$"):
            lemma_m_suite(1, n_modes=8, n_fields=2.5)
        assert lemma_m_suite(1, n_modes=8, n_fields=np.int64(3)) == lemma_m_suite(
            1, n_modes=8, n_fields=3)

    @pytest.mark.parametrize("n_modes", [8, 16, 64])
    @pytest.mark.parametrize("seed", [1, 3, 6, 9, 10, 11])
    def test_equals_the_per_field_loop(self, monkeypatch, seed, n_modes):
        # two full blocks and one row past them
        fields = 2 * block_rows(Grid(n_modes)) + 1
        want, oracle_rng = per_field_lemma_m(seed, n_modes, fields)
        generators = record_generators(monkeypatch)
        report = lemma_m_suite(seed, n_modes=n_modes, n_fields=fields)
        monkeypatch.undo()
        assert report.residuals == want
        # the block draws leave the generator where the per-field loop did
        assert generators[seed].bit_generator.state == oracle_rng.bit_generator.state


def per_field_lemma_m(seed, n_modes, n_fields, sobolev_indices=(0.0, 1.0, 2.0)):
    """lemma_m_suite's worst residuals as its per-field loop formed them:
    one random_field draw and two mean normals per field, the identities
    through SpectralField operations and norm.  Returns the residuals and
    the generator after its draws."""
    grid = Grid(n_modes)
    rng = np.random.default_rng(seed)
    pointwise_constant = math.pi / math.sqrt(3.0)
    worst = {}
    for _ in range(n_fields):
        u = random_field(grid, rng, band=(1, n_modes))
        coeffs = u.coeffs.copy()
        coeffs[grid.index(0)] = complex(*rng.standard_normal(2))
        u = SpectralField(grid, coeffs)
        mu = apply_m(u)
        projected = remove_mean(u)
        residuals = {
            "first_derivative_left": norm(-1j * derivative(mu) - projected, "L2"),
            "first_derivative_right": norm(-1j * apply_m(derivative(u)) - projected, "L2"),
            "second_derivative_left": norm(-1j * derivative(mu, 2) - derivative(u), "L2"),
            "second_derivative_right": norm(
                -1j * apply_m(derivative(u, 2)) - derivative(u), "L2"),
            "conjugation_parity": norm(conjugate(mu) + apply_m(conjugate(u)), "L2"),
            "sobolev_shift": max(
                abs(norm(mu, "Hs", s=s + 1.0) - norm(projected, "Hs", s=s))
                for s in sobolev_indices),
            "pointwise_bound": max(
                0.0, norm(mu, "Linf") - pointwise_constant * norm(projected, "L2")),
        }
        for key, value in residuals.items():
            worst[key] = max(worst.get(key, 0.0), value)
    return worst, rng


def record_generators(monkeypatch):
    """Make np.random.default_rng record every generator it builds, by seed."""
    generators = {}
    default_rng = np.random.default_rng

    def recording_rng(seed_value):
        generators[seed_value] = default_rng(seed_value)
        return generators[seed_value]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    return generators


def block_rows(grid):
    """The rows of one block of spectral._blocks on this grid."""
    return next(_blocks(grid, 1 << 20)).stop


def spy_on_cancellation_rows(monkeypatch):
    """Record the row count of every _cancellation_residuals call made
    through experiments."""
    rows = []
    kernel = experiments._cancellation_residuals

    def spy(setting, grid, u1, u2):
        rows.append(len(u1))
        return kernel(setting, grid, u1, u2)

    monkeypatch.setattr(experiments, "_cancellation_residuals", spy)
    return rows


def per_state_cancellation_maxima(n_modes, seed, fields):
    """The cancellation legs of verify as the per-state loop formed them:
    cancellation_residual on one State at a time, plain then conjugated.
    Returns the two maxima and the generator after its draws."""
    grid = Grid(n_modes)
    rng = np.random.default_rng(seed + 1)
    maxima = []
    for conjugated in (False, True):
        setting = NormalFormSetting(0.1, conjugated, PressureLaw.P0, 1.0)
        worst = 0.0
        for _ in range(fields):
            u = State(
                remove_mean(0.1 * random_field(grid, rng, band=(1, n_modes))),
                remove_mean(0.1 * random_field(grid, rng, band=(1, n_modes))),
            )
            worst = max(worst, cancellation_residual(setting, u))
        maxima.append(worst)
    return maxima, rng


class TestVerifyLegs:
    @pytest.mark.parametrize("past_block", [-1, 0, 1])
    def test_cancellation_legs_equal_the_per_state_loop(self, monkeypatch, past_block):
        # a block less one field, exactly one block, and one field past it
        n_modes, seed = 8, 3
        rows = block_rows(Grid(n_modes))
        fields = rows + past_block
        want, oracle_rng = per_state_cancellation_maxima(n_modes, seed, fields)

        generators = record_generators(monkeypatch)
        calls = spy_on_cancellation_rows(monkeypatch)
        legs = verify_legs(n_modes, seed, fields)
        monkeypatch.undo()

        names = [leg[0] for leg in legs]
        assert names == ["lemma_m", "cancellation_plain", "cancellation_conjugated",
                         "jet_worked_values", "jet_bound_ratio",
                         "implicit_representation"]
        assert all(ok for _, _, _, ok in legs)
        assert [legs[1][1], legs[2][1]] == want
        # the stacked draws leave the generator where the per-state loop did
        assert (generators[seed + 1].bit_generator.state
                == oracle_rng.bit_generator.state)
        assert max(calls) <= rows and sum(calls) == 2 * fields
        assert len(calls) == 2 * (2 if past_block > 0 else 1)

    @pytest.mark.parametrize("fields", [0, -5])
    def test_needs_a_field(self, fields):
        # without fields the lemma and cancellation legs would pass at 0.0
        with pytest.raises(ValueError, match=f"^fields must be at least 1, got {fields}$"):
            verify_legs(8, 1, fields)


    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_jet_bound_equals_the_per_pair_loop(self, monkeypatch, seed):
        want, oracle_rng = per_pair_jet_bound(seed)
        generators = record_generators(monkeypatch)
        legs = verify_legs(8, seed, 1)
        monkeypatch.undo()
        assert legs[4][0] == "jet_bound_ratio" and legs[4][3]
        assert legs[4][1] == want
        assert (generators[seed + 2].bit_generator.state
                == oracle_rng.bit_generator.state)


def per_pair_jet_bound(seed):
    """verify's jet growth-bound leg as the per-pair loop formed it: ten
    pairs u, v on Grid(16), verify_fn_bound at orders 0 to 4 on each.
    Returns the worst ratio and the generator after its draws."""
    grid = Grid(16)
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(10):
        u = remove_mean(0.3 * random_field(grid, rng, band=(1, 8)))
        v = remove_mean(0.3 * random_field(grid, rng, band=(1, 8)))
        for order in range(5):
            report = verify_fn_bound(u, order, v)
            worst = max(worst, report.ratio_fn, report.ratio_dfn)
    return worst, rng


class TestSobolevConstant:
    def test_mean_mode_only(self):
        assert sobolev_constant(0) == 1.0

    def test_monotone_increasing(self):
        values = [sobolev_constant(k) for k in range(0, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_limit(self):
        limit = math.sqrt(1.0 + math.pi**2 / 3.0)
        assert abs(sobolev_constant(200_000) - limit) < 1e-5
        assert sobolev_constant(64) < limit

    def test_embedding_never_violated(self, rng):
        grid = Grid(32)
        c = sobolev_constant(32)
        for _ in range(100):
            u = random_field(grid, rng, band=(0, 32), zero_mean=False)
            assert norm(u, "Linf") <= c * norm(u, "Hs", s=1.0) * (1.0 + 1e-12)

    def test_extremal_field_attains_the_constant(self):
        grid = Grid(32)
        ks = grid.wavenumbers
        coeffs = np.maximum(1.0, np.abs(ks)).astype(complex) ** -2.0
        u = SpectralField(grid, coeffs)
        c = sobolev_constant(32)
        ratio = norm(u, "Linf") / norm(u, "Hs", s=1.0)
        assert ratio >= c * (1.0 - 1e-12)

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError):
            sobolev_constant(-1)
        with pytest.raises(ValueError, match=r"^max_wavenumber must be an integer, got 2\.5$"):
            sobolev_constant(2.5)
        assert sobolev_constant(np.int64(3)) == sobolev_constant(3)


def per_sample_margin(setting, states):
    """The margins of norm_domination_margin as the per-sample loop formed
    them, with the L2 norms of norm() and the Linf norm from one 4x
    oversampled to_physical per sample; the oracle of the blocked form."""
    eps = setting.epsilon
    amp_sq = setting.amplitude**2
    margins = []
    for v in states:
        n1 = norm(v.u1, "L2")
        n2 = norm(v.u2, "L2")
        if setting.law is PressureLaw.P1:
            margins.append(n2 - (1.0 + eps) / (1.0 - eps) * n1)
        else:
            linf = np.max(np.abs(to_physical(v.u1, 4 * v.grid.n_points)))
            amplification = 1.0 + amp_sq * (linf + eps * n2) ** 2
            denominator = 1.0 - 4.0 * eps * amplification
            if denominator <= 0.0:
                raise ValueError(
                    "second-component certificate is vacuous: denominator "
                    f"{denominator:.3e} is not positive"
                )
            bound_sq = amplification / denominator * (1.0 + 5.0 * eps) * n1**2
            margins.append(n2**2 - bound_sq)
    return margins


class TestNormDomination:
    def _state(self, grid, a1, a2):
        return State(from_modes(grid, {1: a1}), from_modes(grid, {1: a2}))

    def test_p1_margin_signs(self):
        grid = Grid(4)
        setting = NormalFormSetting(epsilon=0.1, law=PressureLaw.P1)
        ratio = 1.1 / 0.9
        good = self._state(grid, 1.0, 0.5 * ratio)
        bad = self._state(grid, 1.0, 2.0 * ratio)
        assert norm_domination_margin(setting, [good]) < 0.0
        assert norm_domination_margin(setting, [bad]) > 0.0
        assert norm_domination_margin(setting, [good, bad]) > 0.0

    def test_p2_vacuous_certificate_raises(self):
        grid = Grid(4)
        setting = NormalFormSetting(
            epsilon=0.3, law=PressureLaw.P2, amplitude=2.0
        )
        big = self._state(grid, 1.0, 0.1)
        with pytest.raises(ValueError, match="vacuous"):
            norm_domination_margin(setting, [big])

    def test_plain_p0_has_no_certificate(self):
        grid = Grid(4)
        setting = NormalFormSetting(epsilon=0.1, law=PressureLaw.P0)
        with pytest.raises(ValueError, match="p0"):
            norm_domination_margin(setting, [self._state(grid, 1.0, 0.1)])

    def test_empty_history_raises(self):
        setting = NormalFormSetting(epsilon=0.1, law=PressureLaw.P1)
        with pytest.raises(ValueError, match="samples"):
            norm_domination_margin(setting, [])

    def test_holds_along_a_p1_negative_energy_run(self):
        grid = Grid(16)
        eps = 0.2
        amp = eps**0.5
        profile = make_datum(
            grid, DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        )
        system = SystemSpec("regularized", eps, rescaled=True, amplitude=amp)
        config = IntegratorConfig(dt=1e-3, t_end=0.1, store_every=10)
        trajectory = solve(system, PressureLaw.P1, amp * profile, config)
        setting = NormalFormSetting(epsilon=eps, law=PressureLaw.P1, amplitude=amp)
        states = normal_history(setting, trajectory)
        assert len(states) == len(trajectory.states)
        assert norm_domination_margin(setting, states) < 0.0

    def test_normal_history_round_trips(self):
        grid = Grid(16)
        eps = 0.2
        amp = 0.4
        profile = make_datum(
            grid, DatumSpec(seed=11, target_norm=0.15, law=PressureLaw.P1)
        )
        system = SystemSpec("regularized", eps, rescaled=True, amplitude=amp)
        config = IntegratorConfig(dt=2e-3, t_end=0.02, store_every=5)
        trajectory = solve(system, PressureLaw.P1, amp * profile, config)
        setting = NormalFormSetting(epsilon=eps, law=PressureLaw.P1, amplitude=amp)
        for raw, v in zip(trajectory.states, normal_history(setting, trajectory)):
            back = amp * from_normal_coords(setting, v)
            assert norm(back.u1 - raw.u1, "L2") < 1e-12
            assert norm(back.u2 - raw.u2, "L2") < 1e-12

    def _blocked_states(self, grid, rng, scales):
        return [State(scale * random_field(grid, rng, band=(1, 16)),
                      3.0 * scale * random_field(grid, rng, band=(1, 16)))
                for scale in scales]

    @pytest.mark.parametrize(
        "law, conjugated",
        [(PressureLaw.P1, False), (PressureLaw.P2, False), (PressureLaw.P0, True)],
    )
    def test_matches_the_per_sample_loop(self, rng, law, conjugated):
        # the samples span two full blocks and part of a third on Grid(16);
        # the margin grows with the scale, so the maximum lies in the last
        # block, and in the first with the samples reversed
        grid = Grid(16)
        rows = _BLOCK_POINTS // grid.n_padded
        setting = NormalFormSetting(0.05, conjugated, law, amplitude=0.5)
        states = self._blocked_states(grid, rng, np.linspace(0.01, 0.05, 2 * rows + 10))
        want = per_sample_margin(setting, states)
        assert int(np.argmax(want)) >= 2 * rows
        for samples in (states, states[::-1]):
            got = norm_domination_margin(setting, samples)
            assert abs(got - max(want)) <= 1e-14 * abs(max(want))

    def test_vacuous_sample_past_the_first_block(self, rng):
        # the message names the denominator of the first vacuous sample,
        # which lies in the second block, not that of a later one
        grid = Grid(16)
        rows = _BLOCK_POINTS // grid.n_padded
        scales = np.full(2 * rows + 10, 0.01)
        scales[rows + 3], scales[rows + 5] = 0.6, 0.9
        states = self._blocked_states(grid, rng, scales)
        setting = NormalFormSetting(0.05, law=PressureLaw.P2, amplitude=2.0)
        with pytest.raises(ValueError, match="vacuous") as want:
            per_sample_margin(setting, states)
        with pytest.raises(ValueError, match="vacuous") as got:
            norm_domination_margin(setting, states)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="vacuous") as later:
            per_sample_margin(setting, states[rows + 4:])
        assert str(later.value) != str(want.value)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_normal_frame_columns_match_the_per_sample_map(self, rng, monkeypatch,
                                                           conjugated):
        # the samples span two full blocks and part of a third on Grid(16)
        grid = Grid(16)
        rows = block_rows(grid)
        samples = 2 * rows + 10
        amp = 0.4
        setting = NormalFormSetting(epsilon=0.2, conjugated=conjugated, amplitude=amp)
        states = [State(*(scale * random_field(grid, rng, band=(1, 16))
                          for _ in range(2)))
                  for scale in np.linspace(0.01, 0.5, samples)]
        trajectory = Trajectory(list(np.linspace(0.0, 0.39, samples)), states, [],
                                "completed")
        calls = spy_on_cancellation_rows(monkeypatch)
        columns = normal_frame_columns(setting, trajectory)
        assert calls == [rows, rows, 10]
        assert [len(column) for column in columns] == [samples] * 3
        for raw, norm_v1, norm_v2, residual in zip(states, *columns):
            v = to_normal_coords(setting, raw / amp)
            assert isinstance(norm_v1, float)
            # norm's own kernel on the stacked rows, bit for bit
            assert norm_v1 == norm(v.u1, "Hs", s=1.0)
            assert norm_v2 == norm(v.u2, "L2")
            # both sides sit at the rounding floor of three cancelling terms
            want = cancellation_residual(setting, raw)
            assert residual == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_normal_history_matches_the_per_sample_map(self, rng, conjugated):
        # the samples span two full blocks and part of a third on Grid(16)
        grid = Grid(16)
        samples = 2 * (_BLOCK_POINTS // grid.n_padded) + 10
        amp = 0.4
        setting = NormalFormSetting(epsilon=0.2, conjugated=conjugated, amplitude=amp)
        states = [State(*(scale * random_field(grid, rng, band=(1, 16))
                          for _ in range(2)))
                  for scale in np.linspace(0.01, 0.5, samples)]
        trajectory = Trajectory(list(np.linspace(0.0, 0.39, samples)), states, [],
                                "completed")
        history = normal_history(setting, trajectory)
        assert len(history) == len(states)
        for raw, got in zip(states, history):
            want = to_normal_coords(setting, raw / amp)
            assert got.grid == grid
            for a, b in ((got.u1, want.u1), (got.u2, want.u2)):
                assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15 * np.max(np.abs(b.coeffs))
