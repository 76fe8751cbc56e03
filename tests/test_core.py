import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlac.core import (
    CostSegment,
    InitialStatus,
    MarketDay,
    PowerSystem,
    PriceScenarioSet,
    PshUnit,
    Reservoir,
    ThermalUnit,
    TimeGrid,
    read_scenario_csv,
    read_series_csv,
    read_system_json,
    system_from_dict,
    system_to_dict,
    validate_system,
    write_scenario_csv,
    write_series_csv,
    write_system_json,
    write_weights_csv,
)

from toys import rolling_day_setup


# -- time grid ---------------------------------------------------------------


def test_window_end_clamps_to_horizon():
    assert TimeGrid(1, 24, 3).window_end == 3
    assert TimeGrid(23, 24, 3).window_end == 24
    assert TimeGrid(24, 24, 3).window_end == 24


def test_window_and_post_hours_partition_the_tail():
    g = TimeGrid(5, 10, 3)
    assert list(g.window_hours()) == [5, 6, 7]
    assert list(g.post_hours()) == [8, 9, 10]
    assert list(g.day_hours()) == list(range(1, 11))


def test_full_horizon_window_has_no_post_hours():
    g = TimeGrid(1, 3, 3)
    assert list(g.post_hours()) == []


# -- validation --------------------------------------------------------------


def test_valid_toy_system_has_no_violations(toy_day):
    system, day, _ = toy_day
    assert validate_system(system, day) == []


def _toy():
    return rolling_day_setup()[0]


def _fields(violations):
    return {(v.entity, v.field) for v in violations}


def test_grid_rules():
    sys0 = _toy()
    bad = PowerSystem(TimeGrid(0, -1, 9, 0.0), sys0.thermal_units, sys0.psh_units, sys0.reservoirs)
    got = _fields(validate_system(bad))
    assert ("grid", "start_index") in got
    assert ("grid", "horizon_end") in got
    assert ("grid", "window_length") in got
    assert ("grid", "interval_hours") in got


def test_thermal_rules():
    sys0 = _toy()
    u = sys0.thermal_units[0]
    bad_units = (
        ThermalUnit("t_a", (CostSegment(10.0, 30.0), CostSegment(10.0, 20.0)),
                    0.0, 0.0, 5.0, 1.0, min_up=-1),
        ThermalUnit("t_b", (CostSegment(-5.0, 30.0),), 0.0, 0.0, 0.0, 10.0,
                    da_commitment=(1, 1)),
        ThermalUnit("t_b", u.cost_curve, 0.0, 0.0, 0.0, 10.0),  # duplicate id
        ThermalUnit("t_c", (CostSegment(4.0, 20.0), CostSegment(5.0, 30.0)), 0.0, 0.0, 0.0, 10.0),
    )
    got = _fields(validate_system(PowerSystem(sys0.grid, bad_units, sys0.psh_units, sys0.reservoirs)))
    assert ("t_a", "cost_curve") in got       # non-convex prices
    assert ("t_a", "p_min") in got
    assert ("t_a", "min_up") in got
    assert ("t_b", "cost_curve") in got       # non-positive width
    assert ("t_b", "da_commitment") in got    # wrong length
    assert ("t_b", "id") in got
    assert ("t_c", "cost_curve") in got       # widths sum to 9, not p_max = 10


def test_psh_and_reservoir_rules():
    sys0 = _toy()
    bad_psh = (
        PshUnit("p_a", "nowhere", "n1", 5.0, 1.0, 0.0, 10.0, 1.5, 0.0,
                initial_mode="spin", da_gen=(1.0,), da_pump=None),
        PshUnit("p_b", "res1", "n1", 0.0, 10.0, 0.0, 10.0, 1.0, 1.0,
                da_gen=(5.0, 0.0, 0.0), da_pump=(5.0, 0.0, 0.0)),
    )
    bad_res = (
        Reservoir("res1", 0.0, 10.0, 50.0, -3.0, ("p_b", "ghost")),
        Reservoir("res2", 0.0, 10.0, 5.0, 5.0, ()),
    )
    got = _fields(validate_system(PowerSystem(sys0.grid, (), bad_psh, bad_res)))
    assert ("p_a", "gen_min") in got
    assert ("p_a", "eta_gen") in got
    assert ("p_a", "eta_pump") in got
    assert ("p_a", "reservoir_id") in got
    assert ("p_a", "initial_mode") in got
    assert ("p_a", "da_gen") in got           # wrong length
    assert ("p_b", "da_gen") in got           # gen and pump at once
    assert ("res1", "e_initial") in got
    assert ("res1", "e_final_target") in got
    assert ("res1", "member_units") in got    # ghost member
    assert ("res2", "member_units") in got    # empty


def test_market_day_rules(toy_day):
    system, _, _ = toy_day
    day = MarketDay("bad", (1.0, 2.0), {"elsewhere": (1.0, 2.0, 3.0)}, {"n1": (1.0,)})
    got = _fields(validate_system(system, day))
    assert ("bad", "load") in got
    assert ("bad", "rt_lmp_actual") in got
    assert ("bad", "da_lmp") in got           # missing series for the PSH node


def test_scenario_weight_rules():
    sys0 = _toy()
    scn = PriceScenarioSet(("n1",), 1, np.zeros((2, 1, 3)), (0.9, -0.1))
    got = _fields(validate_system(sys0, scenario_set=scn))
    assert ("scenarios", "weights") in got
    scn2 = PriceScenarioSet(("n1",), 1, np.zeros((2, 1, 3)), (0.6, 0.6))
    got2 = _fields(validate_system(sys0, scenario_set=scn2))
    assert ("scenarios", "weights") in got2


# -- scenario container ------------------------------------------------------


def _scn():
    prices = np.arange(12, dtype=float).reshape(2, 1, 6)
    return PriceScenarioSet(("n1",), 4, prices, (0.5, 0.5))


def test_scenario_set_index_math():
    scn = _scn()
    assert scn.count == 2
    assert scn.forecast_origin == 3
    assert scn.end_hour == 9
    assert list(scn.hours()) == [4, 5, 6, 7, 8, 9]
    assert scn.price(1, "n1", 4) == 6.0
    assert scn.price(0, "n1", 9) == 5.0


def test_slice_hours_drops_the_prefix():
    scn = _scn()
    cut = scn.slice_hours(7)
    assert cut.start_hour == 7
    assert list(cut.hours()) == [7, 8, 9]
    assert cut.price(0, "n1", 7) == 3.0
    with pytest.raises(ValueError):
        scn.slice_hours(2)


def test_scenario_set_equality_covers_prices():
    a = _scn()
    b = _scn()
    assert a == b
    c = PriceScenarioSet(a.nodes, a.start_hour, a.prices + 1.0, a.weights)
    assert a != c
    assert a != "not a set"


# -- serialization round trips ----------------------------------------------


def test_system_json_round_trip(tmp_path, toy_day):
    system = toy_day[0]
    path = tmp_path / "system.json"
    write_system_json(system, path)
    assert read_system_json(path) == system


def test_system_dict_defaults_fill_in():
    system = _toy()
    doc = system_to_dict(system)
    for u in doc["thermal_units"]:
        del u["min_up"], u["min_down"], u["initial_status"], u["da_commitment"]
    back = system_from_dict(doc)
    th = back.thermal_units[0]
    assert th.min_up == 1 and th.min_down == 1
    assert th.initial_status == InitialStatus(True, 24)
    assert th.da_commitment is None


def test_series_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "series.csv"
    series = {"a": [1.25, -0.1, 1e-17], "b": [3.0, 4.5, 5.0]}
    write_series_csv(path, series)
    assert read_series_csv(path) == series


def test_series_csv_rejects_bad_inputs(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,entity_id,value\n1,a,2.0\n")
    with pytest.raises(ValueError, match="expected header"):
        read_series_csv(p)
    p.write_text("hour,entity_id,value\n1,a,notanumber\n")
    with pytest.raises(ValueError, match="line 2"):
        read_series_csv(p)
    p.write_text("hour,entity_id,value\n0,a,1.0\n")
    with pytest.raises(ValueError, match="hour must be >= 1"):
        read_series_csv(p)
    p.write_text("hour,entity_id,value\n1,a,1.0\n3,a,2.0\n")
    with pytest.raises(ValueError, match="not contiguous"):
        read_series_csv(p)


def test_series_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("hour,entity_id,value\n1,a,1.0\n\n2,a,2.0\n")
    assert read_series_csv(p) == {"a": [1.0, 2.0]}


def test_scenario_csv_round_trip(tmp_path):
    scn = _scn()
    sp = tmp_path / "scn.csv"
    wp = tmp_path / "w.csv"
    write_scenario_csv(sp, scn)
    write_weights_csv(wp, scn)
    assert read_scenario_csv(sp, wp) == scn
    # without a weights file the weights fall back to uniform
    assert read_scenario_csv(sp).weights == (0.5, 0.5)


def test_scenario_csv_rejects_bad_inputs(tmp_path):
    p = tmp_path / "scn.csv"
    p.write_text("scenario,node,hour,price\n")
    with pytest.raises(ValueError, match="no scenario rows"):
        read_scenario_csv(p)
    p.write_text("scenario,node,hour,price\n1,n1,1,5.0\n")
    with pytest.raises(ValueError, match="0..S-1"):
        read_scenario_csv(p)
    p.write_text("scenario,node,hour,price\n0,n1,1,5.0\n0,n1,3,5.0\n")
    with pytest.raises(ValueError, match="contiguous"):
        read_scenario_csv(p)
    p.write_text("scenario,node,hour,price\n0,n1,1,5.0\n0,n2,2,5.0\n")
    with pytest.raises(ValueError, match="missing"):
        read_scenario_csv(p)
    p.write_text("bad,header,row,x\n0,n1,1,5.0\n")
    with pytest.raises(ValueError, match="expected header"):
        read_scenario_csv(p)


finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite, min_size=1, max_size=8))
def test_series_round_trip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "series.csv"
    write_series_csv(path, {"x": values})
    assert read_series_csv(path)["x"] == [float(v) for v in values]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=4))
def test_slice_hours_property(s_count, n_hours, offset):
    offset = min(offset, n_hours - 1)
    prices = np.random.default_rng(0).normal(size=(s_count, 2, n_hours))
    scn = PriceScenarioSet(("a", "b"), 3, prices, tuple([1.0 / s_count] * s_count))
    cut = scn.slice_hours(3 + offset)
    assert cut.count == scn.count
    assert cut.end_hour == scn.end_hour
    assert len(list(cut.hours())) == n_hours - offset
    for h in cut.hours():
        assert cut.price(0, "a", h) == scn.price(0, "a", h)
