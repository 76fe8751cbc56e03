"""Constraint builders for pumped-storage units.

Each unit runs in exactly one of three modes per hour (off, generating,
pumping); dispatch is boxed by the committed mode and reservoir energy
follows a water-value free linear balance.  The window block (scenario
``None``) charges start-ups with the unit-commitment start-up indicator
(Morales-Espana, Latorre and Ramos, IEEE TPWRS 28(4), 2013): per unit,
hour and mode ``m`` in gen and pump, a continuous ``su_m in [0, 1]``
costing ``startup_cost_m`` and a row ``su_m[t] >= u_m[t] - u_m[t-1]``,
with ``u_m`` before the first hour the constant ``[prev == m]``.  As
every direct switch is allowed and charges are non-negative
(``core.validate_system``), ``su_m`` settles at
``max(0, u_m[t] - u_m[t-1])``: a charge on entering gen or pump from
any mode, none for staying or going off, and the same price for
fractional modes, so a window with every mode fixed is an LP.
Scenario blocks are revenue-only and carry no start-ups.

A scenario block carries mode binaries only in the (unit, hour)
cells its caller names; every other cell keeps just
``qg in [0, gen_max]`` and ``qp in [0, pump_max]``.  That is exact where
the unit has no dispatch floor (``gen_min = pump_min = 0``) and the
cell's price is not negative.  Take a point that pumps and generates
at once, and let ``d = qg/eta_gen - eta_pump*qp`` be its storage change.
If ``d >= 0``, generating ``eta_gen*d <= qg`` alone gives the same
change; otherwise pumping ``-d/eta_pump <= qp`` alone does.  Either
point stays inside the same bounds, and since ``eta_gen*eta_pump <= 1``
(``core.validate_system`` holds each efficiency to (0, 1]) its net sale
is at least ``qg - qp``.  At a non-negative price that is
no loss in an expected-revenue objective or in any worst-case revenue
row, so the window's optimum is the same for every window decision.
A floor would forbid the small single-mode point, and a negative price
would pay for burning water by pumping and generating at once, so such
cells keep their binaries.

The builders only append variables and rows to a
:class:`~pshlac.milp.MilpModel`; objective terms are the caller's job
except for the window block's start-up charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from .core import MODES, PshMode, PshUnit, Reservoir
from .milp import BINARY, EQ, GE, LE, MilpModel, Tag


def _sfx(scenario: int | None) -> str:
    return "" if scenario is None else f".s{scenario}"


@dataclass
class PshBlock:
    """Variable handles for a group of PSH units over a hour range."""

    hours: tuple[int, ...]
    scenario: int | None
    u: dict[tuple[str, str, int], int] = field(default_factory=dict)  # (unit, mode, hour)
    start: dict[tuple[str, str, int], int] = field(default_factory=dict)  # (unit, gen|pump, hour)
    q_gen: dict[tuple[str, int], int] = field(default_factory=dict)
    q_pump: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass
class SocVars:
    e_det: dict[tuple[str, int], int] = field(default_factory=dict)  # (reservoir, hour)
    e_scen: dict[tuple[str, int, int], int] = field(default_factory=dict)  # (reservoir, scenario, hour)


def create_psh_block(
    model: MilpModel,
    units: Sequence[PshUnit],
    hours: Sequence[int],
    scenario: int | None = None,
    mode_cells: Collection[tuple[str, int]] | None = None,
) -> PshBlock:
    """Create commitment and dispatch variables, plus start-up columns
    in the window block.

    Each window-block start-up column carries the unit's start-up charge
    for its mode in the objective.  A scenario block is revenue-only and
    gets none: its ``start`` stays empty.  ``mode_cells`` names the
    ``(unit, hour)`` cells of a scenario block that get mode binaries
    (see the module docstring); the window block gets them in every cell.
    """
    blk = PshBlock(tuple(hours), scenario)
    s = _sfx(scenario)
    for u in units:
        for t in hours:
            if mode_cells is None or (u.id, t) in mode_cells:
                for m in MODES:
                    blk.u[(u.id, m, t)] = model.add_var(
                        f"u_{m}.{u.id}.t{t}{s}",
                        kind=BINARY,
                        tag=Tag("psh_commit", f"{u.id}:{m}", t, scenario),
                    )
            if scenario is None:
                for m, cost in ((PshMode.GEN.value, u.startup_cost_gen),
                                (PshMode.PUMP.value, u.startup_cost_pump)):
                    blk.start[(u.id, m, t)] = model.add_var(
                        f"su_{m}.{u.id}.t{t}", ub=1.0, obj=cost,
                        tag=Tag("psh_startup", f"{u.id}:{m}", t),
                    )
            blk.q_gen[(u.id, t)] = model.add_var(
                f"qg.{u.id}.t{t}{s}", ub=u.gen_max, tag=Tag("psh_gen", u.id, t, scenario)
            )
            blk.q_pump[(u.id, t)] = model.add_var(
                f"qp.{u.id}.t{t}{s}", ub=u.pump_max, tag=Tag("psh_pump", u.id, t, scenario)
            )
    return blk


def add_mode_logic(
    model: MilpModel,
    blk: PshBlock,
    unit: PshUnit,
    prev: str | None = None,
) -> None:
    """Mode exclusivity in every block hour that has mode binaries; in
    the window block also the start-up rows of gen and pump.

    ``prev`` is the unit's mode in the hour before the window block's
    first hour.  A scenario block takes no ``prev``: it has no start-ups,
    so only exclusivity ties its modes, and its first hour is free of
    the window-edge mode.
    """
    window = blk.scenario is None
    if window and prev is None:
        raise ValueError(f"{unit.id}: the window block needs the mode before hour {blk.hours[0]}")
    s = _sfx(blk.scenario)
    first = blk.hours[0]
    for t in blk.hours:
        if (unit.id, MODES[0], t) not in blk.u:
            continue
        model.add_row(
            f"r_one_mode.{unit.id}.t{t}{s}",
            {blk.u[(unit.id, m, t)]: 1.0 for m in MODES},
            EQ,
            1.0,
            Tag("mode_exclusive", unit.id, t, blk.scenario),
        )
        if not window:
            continue
        # su_m[t] >= u_m[t] - u_m[t-1], with u_m[first-1] = [prev == m]
        for m in (PshMode.GEN.value, PshMode.PUMP.value):
            coeffs = {blk.start[(unit.id, m, t)]: 1.0, blk.u[(unit.id, m, t)]: -1.0}
            rhs = 0.0
            if t == first:
                rhs = -1.0 if prev == m else 0.0
            else:
                coeffs[blk.u[(unit.id, m, t - 1)]] = 1.0
            model.add_row(
                f"r_startup_{m}.{unit.id}.t{t}", coeffs, GE, rhs,
                Tag("startup", f"{unit.id}:{m}", t),
            )


def add_dispatch_boxes(model: MilpModel, blk: PshBlock, unit: PshUnit) -> None:
    """Dispatch bounded by the committed mode: u*min <= q <= u*max, in
    every block hour that has mode binaries."""
    s = _sfx(blk.scenario)
    for t in blk.hours:
        if (unit.id, PshMode.GEN.value, t) not in blk.u:
            continue
        ug = blk.u[(unit.id, PshMode.GEN.value, t)]
        up = blk.u[(unit.id, PshMode.PUMP.value, t)]
        qg = blk.q_gen[(unit.id, t)]
        qp = blk.q_pump[(unit.id, t)]
        model.add_row(
            f"r_gen_hi.{unit.id}.t{t}{s}", {qg: 1.0, ug: -unit.gen_max}, LE, 0.0,
            Tag("gen_box_hi", unit.id, t, blk.scenario),
        )
        model.add_row(
            f"r_gen_lo.{unit.id}.t{t}{s}", {qg: 1.0, ug: -unit.gen_min}, GE, 0.0,
            Tag("gen_box_lo", unit.id, t, blk.scenario),
        )
        model.add_row(
            f"r_pump_hi.{unit.id}.t{t}{s}", {qp: 1.0, up: -unit.pump_max}, LE, 0.0,
            Tag("pump_box_hi", unit.id, t, blk.scenario),
        )
        model.add_row(
            f"r_pump_lo.{unit.id}.t{t}{s}", {qp: 1.0, up: -unit.pump_min}, GE, 0.0,
            Tag("pump_box_lo", unit.id, t, blk.scenario),
        )


def _flow_coeffs(coeffs: dict[int, float], blk: PshBlock, units: Sequence[PshUnit], t: int, dt: float) -> None:
    # energy added to storage during hour t: eta_pump*qp*dt - qg*dt/eta_gen
    for u in units:
        coeffs[blk.q_pump[(u.id, t)]] = coeffs.get(blk.q_pump[(u.id, t)], 0.0) - u.eta_pump * dt
        coeffs[blk.q_gen[(u.id, t)]] = coeffs.get(blk.q_gen[(u.id, t)], 0.0) + dt / u.eta_gen


def add_soc_dynamics(
    model: MilpModel,
    reservoir: Reservoir,
    units: Sequence[PshUnit],
    det_block: PshBlock,
    scen_blocks: Sequence[PshBlock],
    e_initial: float,
    e_final_target: float | None,
    dt: float = 1.0,
    close_horizon: bool = True,
    end_soc: str = "fix",
) -> SocVars:
    """Reservoir energy balance across the deterministic and scenario regimes.

    In-window energy is a single trajectory; at the window edge each
    scenario receives its own copy and evolves independently to the end
    of the day, where the final state meets ``e_final_target`` (equality
    by default, lower bound with ``end_soc='relax'``).  With no scenario
    blocks and ``close_horizon`` the deterministic trajectory itself is
    closed at the horizon end; without ``close_horizon`` (schedule-
    following windows) the trajectory just stops at the window edge.
    """
    rid = reservoir.id
    members = [u for u in units if u.reservoir_id == rid]
    soc = SocVars()
    hours = det_block.hours
    last = hours[-1]
    for t in hours:
        soc.e_det[(rid, t)] = model.add_var(f"e.{rid}.t{t}", tag=Tag("soc", rid, t, None))

    model.add_row(
        f"r_soc_init.{rid}",
        {soc.e_det[(rid, hours[0])]: 1.0},
        EQ,
        e_initial,
        Tag("soc_initial", rid, hours[0], None),
    )
    for t in hours[:-1]:
        coeffs = {soc.e_det[(rid, t + 1)]: 1.0, soc.e_det[(rid, t)]: -1.0}
        _flow_coeffs(coeffs, det_block, members, t, dt)
        model.add_row(f"r_soc.{rid}.t{t}", coeffs, EQ, 0.0, Tag("soc_link", rid, t, None))
    for t in hours:
        model.add_row(
            f"r_soc_min.{rid}.t{t}", {soc.e_det[(rid, t)]: 1.0}, GE, reservoir.e_min,
            Tag("soc_min", rid, t, None),
        )
        model.add_row(
            f"r_soc_max.{rid}.t{t}", {soc.e_det[(rid, t)]: 1.0}, LE, reservoir.e_max,
            Tag("soc_max", rid, t, None),
        )

    end_sense = GE if end_soc == "relax" else EQ
    if scen_blocks:
        for blk in scen_blocks:
            s = blk.scenario
            post = blk.hours
            for t in post:
                soc.e_scen[(rid, s, t)] = model.add_var(f"e.{rid}.t{t}.s{s}", tag=Tag("soc", rid, t, s))
            end_var = model.add_var(f"e.{rid}.t{post[-1] + 1}.s{s}", tag=Tag("soc", rid, post[-1] + 1, s))
            soc.e_scen[(rid, s, post[-1] + 1)] = end_var
            # branch point: scenario copy of the hour after the window edge
            coeffs = {soc.e_scen[(rid, s, post[0])]: 1.0, soc.e_det[(rid, last)]: -1.0}
            _flow_coeffs(coeffs, det_block, members, last, dt)
            model.add_row(
                f"r_soc_cross.{rid}.s{s}", coeffs, EQ, 0.0, Tag("soc_link_cross", rid, last, s)
            )
            for t in post:
                coeffs = {soc.e_scen[(rid, s, t + 1)]: 1.0, soc.e_scen[(rid, s, t)]: -1.0}
                _flow_coeffs(coeffs, blk, members, t, dt)
                model.add_row(
                    f"r_soc.{rid}.t{t}.s{s}", coeffs, EQ, 0.0, Tag("soc_link_scenario", rid, t, s)
                )
                model.add_row(
                    f"r_soc_min.{rid}.t{t}.s{s}", {soc.e_scen[(rid, s, t)]: 1.0}, GE, reservoir.e_min,
                    Tag("soc_min", rid, t, s),
                )
                model.add_row(
                    f"r_soc_max.{rid}.t{t}.s{s}", {soc.e_scen[(rid, s, t)]: 1.0}, LE, reservoir.e_max,
                    Tag("soc_max", rid, t, s),
                )
            if e_final_target is not None:
                model.add_row(
                    f"r_soc_end.{rid}.s{s}", {end_var: 1.0}, end_sense, e_final_target,
                    Tag("soc_final", rid, post[-1] + 1, s),
                )
    elif close_horizon:
        end_var = model.add_var(f"e.{rid}.t{last + 1}", tag=Tag("soc", rid, last + 1, None))
        soc.e_det[(rid, last + 1)] = end_var
        coeffs = {end_var: 1.0, soc.e_det[(rid, last)]: -1.0}
        _flow_coeffs(coeffs, det_block, members, last, dt)
        model.add_row(f"r_soc_cross.{rid}", coeffs, EQ, 0.0, Tag("soc_link_cross", rid, last, None))
        if e_final_target is not None:
            model.add_row(
                f"r_soc_end.{rid}", {end_var: 1.0}, end_sense, e_final_target,
                Tag("soc_final", rid, last + 1, None),
            )
    return soc


def fix_block_to_schedule(
    model: MilpModel,
    blk: PshBlock,
    unit: PshUnit,
    gen: Mapping[int, float],
    pump: Mapping[int, float],
) -> None:
    """Pin a unit's commitment and dispatch to a given hourly schedule.

    Used by the schedule-following benchmark; the schedule must respect
    the unit's boxes or the fixing is rejected.
    """
    for t in blk.hours:
        qg = float(gen.get(t, 0.0))
        qp = float(pump.get(t, 0.0))
        if qg > 0 and qp > 0:
            raise ValueError(f"{unit.id} hour {t}: schedule generates and pumps at once")
        if qg > 0 and not (unit.gen_min - 1e-9 <= qg <= unit.gen_max + 1e-9):
            raise ValueError(f"{unit.id} hour {t}: gen {qg} MW outside [{unit.gen_min}, {unit.gen_max}]")
        if qp > 0 and not (unit.pump_min - 1e-9 <= qp <= unit.pump_max + 1e-9):
            raise ValueError(f"{unit.id} hour {t}: pump {qp} MW outside [{unit.pump_min}, {unit.pump_max}]")
        mode = PshMode.GEN.value if qg > 0 else PshMode.PUMP.value if qp > 0 else PshMode.OFF.value
        for m in MODES:
            val = 1.0 if m == mode else 0.0
            model.set_var_bounds(blk.u[(unit.id, m, t)], val, val)
        model.set_var_bounds(blk.q_gen[(unit.id, t)], qg, qg)
        model.set_var_bounds(blk.q_pump[(unit.id, t)], qp, qp)


def soc_step(units: Sequence[PshUnit], reservoir: Reservoir, e_now: float,
             gen: Mapping[str, float], pump: Mapping[str, float], dt: float = 1.0) -> float:
    """One bookkeeping step of the reservoir balance for realized dispatch."""
    e_next = e_now
    for u in units:
        if u.reservoir_id != reservoir.id:
            continue
        e_next += u.eta_pump * pump.get(u.id, 0.0) * dt - gen.get(u.id, 0.0) * dt / u.eta_gen
    return e_next
