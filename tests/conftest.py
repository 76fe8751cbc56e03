import pytest

from pshlac import forecast, synth
from pshlac.lac_models import Variant
from pshlac.milp import SolveOptions, solve

from toys import rolling_day_setup, window_setup

EXACT = SolveOptions(gap_tol=1e-9, time_limit=60.0)


@pytest.fixture(scope="session")
def toy_day():
    """(system, market_day, da) for the 3-hour rolling toy."""
    return rolling_day_setup()


@pytest.fixture(scope="session")
def seed11_study():
    """The price pipeline fitted on the seed-11 history, and days 0-1 of
    the seed-11 study."""
    cfg = synth.SynthConfig(seed=11)
    base = synth.make_system(cfg)
    pipe = forecast.ForecastPipeline(forecast.ForecastConfig()).fit(synth.make_history(cfg))
    return pipe, [synth.make_day(cfg, k, base_system=base) for k in (0, 1)]


@pytest.fixture
def basic_window():
    """2-hour window of a 3-hour day with a single flat-price scenario."""
    return window_setup()


def solve_exact(model):
    sol = solve(model, EXACT)
    assert sol.ok, sol.status
    return sol


@pytest.fixture
def exact_solver():
    return solve_exact


ALL_VARIANTS = tuple(Variant)
