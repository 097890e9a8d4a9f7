import numpy as np
import pytest

from cartanheis import darboux, dsl, invariants
from cartanheis.dsl import Bin, CExpr, Immersion, fun, num, param

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


def mixed_verticality_example() -> Immersion:
    """Holomorphic-section surface whose verticality changes across the chart.

    Uses z_2 = c z_1 w; the factor z_1 kills the fibre coupling along
    {z_1 = 0}, where the surface contains vertical lines.
    """
    c = 0.35
    params = ["u1", "u2", "u3"]
    # symmetric boxes put lattice points exactly on the vertical locus z_1 = 0
    chart = [(-0.5, 0.5), (-0.4, 0.4), (-0.4, 0.6)]
    z1 = CExpr(param("u1"), param("u2"))
    v = param("u3")
    r2 = z1.abs2()
    A = num(c * c) * r2
    C = r2 + num(c * c) * r2 * v * v
    h = Bin("/", num(2.0) * C,
            num(1.0) + fun("sqrt", num(1.0) - num(4.0) * A * C))
    w = CExpr(v, h)
    z2 = CExpr(num(c)) * z1 * w
    return Immersion("mixed_example", 2, 1, params, chart,
                     [param("u1"), z2.re, param("u2"), z2.im,
                      Bin("/", v, num(2.0))])


def coordinate_slice_plane() -> Immersion:
    """The 3-plane {(x1, y1, x2, 0, 0)}: singular on {x1 = y1 = 0}, and not
    CR-invariant at its regular points.  Used as a negative control."""
    params = ["u1", "u2", "u3"]
    chart = [(-0.5, 0.5)] * 3
    return Immersion("slice_plane", 2, 1, params, chart,
                     [param("u1"), param("u3"), param("u2"), num(0.0), num(0.0)])


def second(jet, i, j):
    """The second partial derivative d2/du_i du_j of ``jet``."""
    return jet.jacobian().gradient()[j][..., i]


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
