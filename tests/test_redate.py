"""Re-dated window models against fresh builds.

``lac_models.build_variant`` given the window built before copies that
model's in-window block, moves it to the new hours and writes the new
instance's data into it.  Each such model must be the one a fresh build
of the same instance gives, element by element, down to the names an
LP dump and an IIS report print.
"""

from dataclasses import replace

import pytest

from pshlac import accounting
from pshlac.lac_models import DaReference, ModelConfig, Variant, build_variant
from pshlac.milp import MilpModel, SolveOptions
from pshlac.rolling import FrozenSetProvider, PipelineProvider, RunControl, run_day

from oracle_tools import model_differences
from toys import full_set_for_day, recorded_windows, window_setup

@pytest.fixture
def redates(monkeypatch):
    """The shift of each ``MilpModel.redated`` call."""
    seen = []
    original = MilpModel.redated

    def counted(self, n_vars, n_rows, by):
        seen.append(by)
        return original(self, n_vars, n_rows, by)

    monkeypatch.setattr(MilpModel, "redated", counted)
    return seen


@pytest.fixture
def resolves(monkeypatch):
    """The arguments and model of each ``accounting.full_day_resolve``
    call, and the function itself."""
    seen = []
    original = accounting.full_day_resolve

    def recorded(*args):
        model, sol = original(*args)
        seen.append((args, model))
        return model, sol

    monkeypatch.setattr(accounting, "full_day_resolve", recorded)
    return seen, original


def _check_day(system, day, da, provider, control, redates, resolves):
    """Roll every variant, then settle: every window built after the
    first re-dates the one before unless it reaches the day end, the
    settlement re-dates the model of the ledger before, and each model
    equals a fresh build of its instance."""
    ledgers = {}
    for variant in Variant:
        redates.clear()
        with recorded_windows() as windows:
            ledgers[variant.value] = run_day(system, day, variant, provider, control, da)
        built = [rec for rec in windows if rec.model is not None]
        if variant == Variant.PERFECT:
            assert redates == []  # its windows shrink to the day end
        else:
            # one build_variant call per window, the benchmark's lac_models.windows
            assert len(built) == len(windows) == system.grid.horizon_end - system.grid.window_length + 1
            assert redates == [1] * (len(built) - 2)  # the first and the day-end window stay fresh
        for rec in built:
            fresh = build_variant(variant, rec.instance, control.model)
            assert model_differences(rec.model, fresh) == [], (variant.value, rec.t1)
            block = rec.model.meta["block"]
            assert block == replace(fresh.meta["block"], rounding=block.rounding)
    redates.clear()
    calls, full_day_resolve = resolves
    calls.clear()
    accounting.evaluate_day(system, day, ledgers, da, control.model, control.solver)
    # one full_day_resolve call per ledger, the benchmark's accounting.resolves;
    # each after the first re-dates the model of the one before
    assert [args[2].variant for args, _ in calls] == [v.value for v in Variant]
    # arguments 7 and 8 are the previous model and the day's HiGHS session
    assert [args[6] is None for args, _ in calls] == [True] + [False] * (len(calls) - 1)
    session = calls[0][0][7]
    assert session is not None and all(args[7] is session for args, _ in calls)
    assert redates == [0] * (len(calls) - 1)
    for args, model in calls:
        fresh, _ = full_day_resolve(*args[:6])
        assert model_differences(model, fresh) == [], args[2].variant
    return ledgers


def test_re_dated_windows_and_settlements_equal_fresh_builds(seed11_study, redates, resolves):
    # days 0-1 of the seed-11 study at S=10 and gap 1e-5, as the benchmark rolls them
    pipe, days = seed11_study
    control = RunControl(scenario_count=10, seed=11, model=ModelConfig(gap_tol=1e-5),
                         solver=SolveOptions(gap_tol=1e-5, time_limit=120.0))
    for sd in days:
        provider = PipelineProvider(pipe, sd.market_day.da_lmp, 24, 10, 11)
        _check_day(sd.system, sd.market_day, sd.da, provider, control, redates, resolves)


def _hour_like_ids_day(T=12, L=3):
    """A 12-hour toy day whose unit and reservoir ids look like hour
    labels: thermal ``t1``, PSH ``t2``, reservoir ``u.t1``.  Its windows
    cross from one-digit to two-digit hours."""
    loads = (40.0, 55.0, 70.0, 45.0, 80.0, 60.0, 35.0, 75.0, 50.0, 65.0, 85.0, 45.0)[:T]
    ws = window_setup(T=T, L=L, loads=loads, prices=((30.0,) * (T - L),), da_gen=(0.0,) * (T - 1) + (9.0,),
                      e_init=20.0, e_target=10.0,
                      trans_gen=2.0, trans_pump=1.0, eta_gen=0.9, eta_pump=0.85, no_load=5.0,
                      thermal_segments=((45.0, 20.0), (155.0, 60.0)))
    sys = ws.system
    thermal = replace(sys.thermal_units[0], id="t1", da_commitment=(1,) * 4 + (0,) + (1,) * (T - 5))
    unit = replace(sys.psh_units[0], id="t2", reservoir_id="u.t1")
    res = replace(sys.reservoirs[0], id="u.t1", member_units=("t2",))
    system = replace(sys, thermal_units=(thermal,), psh_units=(unit,), reservoirs=(res,))
    da = DaReference({"t2": unit.da_gen}, {"t2": unit.da_pump}, {"t1": thermal.da_commitment},
                     {"u.t1": res.e_final_target})
    return system, ws.market_day, da


def test_ids_that_look_like_hours_keep_their_names(redates, resolves):
    # a name's hour is the one its builder recorded, not a ".t<digits>"
    # found in it, so "r_soc_init.u.t1" and "qg.t2.t9" re-date right
    system, day, da = _hour_like_ids_day()
    T = system.grid.horizon_end
    # two trajectories, one with a negative price: its tails keep a block
    full = full_set_for_day([[30.0 + 4.0 * (t % 3) for t in range(T)],
                             [-5.0 if t == T - 2 else 25.0 + t for t in range(T)]])
    point = full_set_for_day([[28.0 + t for t in range(T)]])
    provider = FrozenSetProvider({t0: full for t0 in range(T)}, {t0: point for t0 in range(T)})
    control = RunControl(solver=SolveOptions(gap_tol=1e-9))
    ledgers = _check_day(system, day, da, provider, control, redates, resolves)
    assert len(ledgers) == len(Variant)
    with recorded_windows() as windows:
        run_day(system, day, Variant.ROBUST, provider, control, da)
    names = set()
    for rec in windows[1:-1]:
        fresh = build_variant(Variant.ROBUST, rec.instance, control.model)
        assert rec.model.to_lp_string() == fresh.to_lp_string()
        names.update(rec.model.var(i).name for i in range(rec.model.n_vars))
        names.update(rec.model.row(i).name for i in range(rec.model.n_rows))
    assert {"r_soc_init.u.t1", "r_soc_cross.u.t1", "qg.t2.t9", "qg.t2.t10", "p.t1.t11",
            "r_startup_gen.t2.t10", "e.u.t1.t10"} <= names
