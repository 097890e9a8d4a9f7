import numpy as np
import pytest

from cartanheis import darboux, dsl, invariants

_CACHE = {}


def analysis_for(spec, counts=7, policy="canonical", mode="ad"):
    """Shared, cached pipeline runs so the suite stays fast."""
    key = (spec, counts if np.isscalar(counts) else tuple(counts), policy, mode)
    if key not in _CACHE:
        imm = dsl.parse_surface_spec(spec)
        grid = darboux.ChartGrid(imm.chart, counts)
        ff = darboux.darboux_frame(imm, grid, policy=policy, mode=mode)
        _CACHE[key] = (imm, grid, ff, invariants.Analysis(ff))
    return _CACHE[key]


@pytest.fixture(scope="session")
def sphere_nu():
    return analysis_for("builtin:sphere(2,1)", 7, "nu")


@pytest.fixture(scope="session")
def sphere2_nu():
    return analysis_for("builtin:sphere(2,2)", 7, "nu")


@pytest.fixture(scope="session")
def heis_sub12():
    return analysis_for("builtin:heis_sub(1,2)", 7)


@pytest.fixture(scope="session")
def holograph():
    return analysis_for("builtin:holograph()", 7)


@pytest.fixture(scope="session")
def ellipsoid_nu():
    return analysis_for("builtin:ellipsoid(2,1,1.3)", 7, "nu")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def _fresh_sweep_pool():
    """Each test's pooled sweeps run on workers forked during the test: a
    pool kept from an earlier test would carry that test's patches."""
    yield
    invariants._close_pool()
