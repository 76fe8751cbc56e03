import math
from dataclasses import replace

import pytest

from pshlac import accounting
from pshlac.accounting import (
    AccountingError,
    da_profit,
    evaluate_day,
    full_day_resolve,
    lac_profit,
    objective_delta_table,
    realized_lmp,
)
from pshlac.core import FrozenDecision
from pshlac.lac_models import Variant
from pshlac.milp import SolveOptions
from pshlac.rolling import FrozenSetProvider, RunControl, SimulationLedger, run_day

from conftest import EXACT
from toys import NODE, full_set_for_day

CONTROL = RunControl(solver=EXACT)


def _provider():
    return FrozenSetProvider(
        {0: full_set_for_day(((30.0, 30.0, 30.0), (10.0, 10.0, 10.0)))},
        {0: full_set_for_day(((20.0, 20.0, 20.0),))},
    )


@pytest.fixture(scope="module")
def settled(toy_day):
    system, day, da = toy_day
    ledgers = {
        "current_practice": run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da),
        "stochastic": run_day(system, day, Variant.STOCHASTIC, _provider(), CONTROL, da),
    }
    return system, day, da, ledgers, evaluate_day(system, day, ledgers, da)


# -- re-pricing --------------------------------------------------------------


def test_realized_lmp_is_the_marginal_thermal_price(settled):
    system, day, da, ledgers, ev = settled
    model, sol = full_day_resolve(system, day, ledgers["current_practice"], da)
    # 200 MW of 20 $/MWh thermal is marginal in every hour of the toy day
    assert realized_lmp(model, sol) == pytest.approx((20.0, 20.0, 20.0), abs=1e-7)


def test_settlement_charges_the_ledgers_commitments(toy_day):
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    # th1 is off in hour 2 of the ledger, against an all-on day-ahead plan,
    # so it starts again in hour 3
    ledger.hours[1] = replace(ledger.hours[1], thermal_commit={"th1": 0})
    charged = replace(system.thermal_units[0], startup_cost=500.0, no_load_cost=10.0)
    model, sol = full_day_resolve(replace(system, thermal_units=(charged,)), day, ledger, da)
    assert model.objective_constant == 500.0 + 2 * 10.0
    p = [model.var(model.meta["thermal_p"][("th1", t)]) for t in (1, 2, 3)]
    assert [(v.lb, v.ub) for v in p] == [(0.0, 200.0), (0.0, 0.0), (0.0, 200.0)]
    # hour 2 goes short by its 50 MW load; hour 3 buys 40 MW next to 10 MW of storage
    assert sol.objective == pytest.approx(50.0 * 20.0 + 50.0 * 3500.0 + 40.0 * 20.0 + 520.0, abs=1e-6)


def test_schedule_follower_books_zero_profit(settled):
    system, day, da, ledgers, ev = settled
    assert ev.outcomes["current_practice"].profit["ps1"] == 0.0


def test_day_evaluation_delta_table(settled):
    system, day, da, ledgers, ev = settled
    rows = ev.objective_rows()
    assert [r["variant"] for r in rows] == ["current_practice", "stochastic"]
    assert rows[0]["delta_pct"] == 0.0
    cp = ev.outcomes["current_practice"].objective
    st = ev.outcomes["stochastic"].objective
    assert cp == pytest.approx(2800.0, abs=1e-6)  # (50+50+40) MWh at 20 $/MWh
    assert rows[1]["delta_pct"] == pytest.approx((st - cp) / cp * 100.0, abs=1e-9)
    assert ev.da_profit == {"ps1": pytest.approx(200.0)}  # 10 MW sold DA at 20


def test_missing_hours_are_reported(toy_day):
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    gappy = SimulationLedger(ledger.variant, ledger.day_label, ledger.seed)
    gappy.hours = [h for h in ledger.hours if h.hour != 2]
    with pytest.raises(AccountingError, match=r"missing hours \[2\]"):
        full_day_resolve(system, day, gappy, da)


def test_undischargeable_ledger_is_called_out(toy_day):
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    idle = SimulationLedger(ledger.variant, ledger.day_label, ledger.seed)
    # all-off storage cannot reach the end-of-day target from the initial fill
    idle.hours = [
        replace(h, psh_mode={"ps1": "off"}, psh_gen={"ps1": 0.0}, psh_pump={"ps1": 0.0})
        for h in ledger.hours
    ]
    with pytest.raises(AccountingError, match="infeasible on actual load"):
        full_day_resolve(system, day, idle, da)


def test_settlement_time_out_names_the_ledger_and_the_limit(settled, monkeypatch):
    system, day, da, ledgers, _ = settled
    reported = []
    monkeypatch.setattr(accounting, "infeasibility_report", lambda model: reported.append(model) or [])
    with pytest.raises(AccountingError) as err:
        evaluate_day(system, day, ledgers, da, None, SolveOptions(time_limit=0.0))
    assert str(err.value) == (
        f"ledger current_practice/{day.label} settlement LP hit its 0.0 s time limit"
    )
    assert reported == []


# -- profit arithmetic -------------------------------------------------------


def _hand_ledger(gen, pump):
    led = SimulationLedger("stochastic", "hand", 0)
    led.hours = [
        FrozenDecision(
            hour=t,
            psh_mode={"ps1": "gen" if gen[t - 1] else "pump" if pump[t - 1] else "off"},
            psh_gen={"ps1": gen[t - 1]}, psh_pump={"ps1": pump[t - 1]},
            thermal_commit={"th1": 1}, thermal_p={"th1": 50.0},
            soc_after={"res1": 0.0},
        )
        for t in range(1, 4)
    ]
    return led


def test_lac_profit_by_hand(toy_day):
    system, day, da = toy_day  # da net is (0, 0, 10)
    led = _hand_ledger(gen=(0.0, 20.0, 0.0), pump=(0.0, 0.0, 0.0))
    got = lac_profit(led, da, (10.0, 30.0, 20.0), system)
    # deviations (0, +20, -10) priced at (10, 30, 20)
    assert got == {"ps1": pytest.approx(20.0 * 30.0 - 10.0 * 20.0)}


def test_da_profit_by_hand(toy_day):
    system, day, da = toy_day
    got = da_profit(da, {NODE: (15.0, 25.0, 40.0)}, system)
    assert got == {"ps1": pytest.approx(10.0 * 40.0)}


def test_delta_table_math_and_order():
    objectives = {
        "robust": 2100.0, "current_practice": 2000.0, "stochastic": 1800.0, "custom": 1.0,
    }
    rows = objective_delta_table(objectives)
    assert [r["variant"] for r in rows] == ["current_practice", "stochastic", "robust", "custom"]
    by_name = {r["variant"]: r["delta_pct"] for r in rows}
    assert by_name["current_practice"] == 0.0
    assert by_name["stochastic"] == pytest.approx(-10.0)
    assert by_name["robust"] == pytest.approx(5.0)


def test_delta_table_guards():
    with pytest.raises(AccountingError, match="needs a current_practice run"):
        objective_delta_table({"stochastic": 1.0})
    with pytest.raises(AccountingError, match="zero"):
        objective_delta_table({"current_practice": 0.0})


def test_variant_order_covers_all_variants():
    # reports list the variants in the enum's order, other labels after them
    order = ["current_practice", "perfect", "deterministic", "stochastic", "robust"]
    assert [v.value for v in Variant] == order
    labels = ["zeta", "robust", "stochastic", "perfect", "deterministic", "current_practice", "alpha"]
    assert sorted(labels, key=accounting._variant_sort_key) == order + ["alpha", "zeta"]


# -- report files ------------------------------------------------------------


def test_report_writers(tmp_path, settled):
    system, day, da, ledgers, ev = settled
    obj = tmp_path / "objective.csv"
    ev.write_objective_csv(obj)
    lines = obj.read_text().splitlines()
    assert lines[0] == "variant,objective,delta_pct"
    assert lines[1].startswith("current_practice,2800.0,0.0")

    prof = tmp_path / "profit.csv"
    ev.write_profit_csv(prof)
    plines = prof.read_text().splitlines()
    assert plines[0] == "variant,unit,da_profit,lac_profit"
    assert plines[1].startswith("current_practice,ps1,200.0,0.0")

    lmp = tmp_path / "lmp.csv"
    ev.write_lmp_csv(lmp, day, NODE)
    llines = lmp.read_text().splitlines()
    assert llines[0] == "hour,da_lmp,lmp_current_practice,lmp_stochastic"
    assert len(llines) == 1 + 3

    disp = tmp_path / "dispatch.csv"
    ev.write_dispatch_csv(disp, system, da, ledgers)
    dlines = disp.read_text().splitlines()
    assert dlines[0] == "hour,unit,da_net,net_current_practice,net_stochastic"
    assert dlines[3].startswith("3,ps1,10.0,10.0")

    text = ev.format_text()
    assert text.startswith("day toyday\n")
    assert "current_practice" in text and "profit_ps1" in text


def test_evaluation_without_baseline_reports_nan_deltas(toy_day):
    system, day, da = toy_day
    ledgers = {"stochastic": run_day(system, day, Variant.STOCHASTIC, _provider(), CONTROL, da)}
    ev = evaluate_day(system, day, ledgers, da)
    assert ev.delta is None
    rows = ev.objective_rows()
    assert len(rows) == 1 and math.isnan(rows[0]["delta_pct"])
