import time

import numpy as np
import pytest

from cartanheis import dsl
from cartanheis.errors import (DomainError, DslDimensionMismatch, DslSyntaxError,
                               NotImmersed, UndeclaredParameter, UnknownBuiltin)
from conftest import second

PLANE = """\
surface plane {
  n = 2; m = 2;
  params = [u1, u2, u3, u4, u5];
  chart = [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]];
}
x[1] = u1;  x[2] = u2;
y[1] = u3;  y[2] = u4;
t = u5;
"""


def test_parse_plane_and_evaluate():
    imm = dsl.parse(PLANE)
    assert imm.label == "plane" and imm.n == 2 and imm.m == 2
    u = [np.array([0.1 * k]) for k in range(1, 6)]
    vals = imm.values(u)
    assert np.allclose([v[0] for v in vals], [0.1, 0.2, 0.3, 0.4, 0.5])


def test_pretty_print_fixed_point():
    for spec in ("builtin:heis_sub(1,2)", "builtin:sphere(2,1)",
                 "builtin:sphere(3,0.7)", "builtin:holograph()",
                 "builtin:holograph(3)", "builtin:ellipsoid(2,1,1.3)",
                 "builtin:ellipsoid(3,1,1,1.2)"):
        imm = dsl.parse_surface_spec(spec)
        txt = dsl.pretty_print(imm)
        assert txt == dsl.pretty_print(dsl.parse(txt))


def test_unknown_function_position():
    text = PLANE.replace("x[1] = u1;", "x[1] = siin(u1);")
    with pytest.raises(DslSyntaxError) as e:
        dsl.parse(text)
    assert e.value.line == 6 and e.value.col == 8


def test_undeclared_parameter_position():
    text = PLANE.replace("t = u5;", "t = q7;")
    with pytest.raises(UndeclaredParameter) as e:
        dsl.parse(text)
    assert e.value.line == 8 and e.value.col == 5


def test_header_dimension_errors():
    with pytest.raises(DslDimensionMismatch):
        dsl.parse(PLANE.replace("params = [u1, u2, u3, u4, u5];",
                                "params = [u1, u2, u3];"))
    with pytest.raises(DslDimensionMismatch) as e:
        dsl.parse(PLANE.replace("  x[2] = u2;", ""))
    assert "x[2]" in str(e.value)


def test_duplicate_assignment():
    with pytest.raises(DslSyntaxError):
        dsl.parse(PLANE + "t = u1;\n")


def test_expression_grammar_and_precedence():
    text = PLANE.replace("x[1] = u1;", "x[1] = -u1^2 + 2.0 * (u2 - u3) / 4.0;")
    imm = dsl.parse(text)
    u = [np.array([2.0]), np.array([1.0]), np.array([0.5]),
         np.array([0.0]), np.array([0.0])]
    # -(u1^2) + 2 (u2-u3)/4
    assert np.isclose(imm.values(u)[0][0], -4.0 + 0.25)
    txt = dsl.pretty_print(imm)
    assert txt == dsl.pretty_print(dsl.parse(txt))


def test_ad_jets_match_fd_jets():
    imm = dsl.parse_surface_spec("builtin:ellipsoid(2,1,1.3)")
    u = [np.array([0.6]), np.array([0.1]), np.array([0.2])]
    jA = imm.jets(u, order=3)
    jF = dsl.fd_jets(imm.values, 3, u, 3, [1e-2] * 3)
    for c in range(5):
        assert np.allclose(jA[c].gradient(), jF[c].gradient(), atol=1e-7)
        for i in range(3):
            for k in range(3):
                assert np.allclose(second(jA[c], i, k), second(jF[c], i, k),
                                   atol=1e-4)
    # Richardson first derivatives: O(step^4), so 1e-9 at steps of 1e-3
    sphere = dsl.parse_surface_spec("builtin:sphere(2,1)")
    u = [np.array([0.7]), np.array([0.4]), np.array([0.5])]
    jA = sphere.jets(u, order=2)
    jF = dsl.fd_jets(sphere.values, 3, u, 2, [1e-3] * 3)
    for c in range(5):
        assert np.allclose(jA[c].gradient(), jF[c].gradient(), atol=1e-9)


FD_CHART = """surface fd_chart {{
  n = 2; m = 1;
  params = [p, q, r];
  chart = [[0.2, 0.8], [-0.3, 0.3], [-0.5, 0.5]];
}}
x[1] = p; y[1] = q;
x[2] = {x2};
y[2] = {y2};
t = r;
"""


@pytest.mark.parametrize("x2, y2, count", [
    # on the one point (0.5, 0, 0), with steps (0.3, 0.3, 0.5), sqrt fails
    # at the stencil offset (2, 0, 2) alone
    ("sqrt(2.05 - p - 0.9*q - r)", "0", 1),
    # ln fails at (0, 2, 0), which the stacked call evaluates first, and
    # sqrt at the earlier offset (2, 0, 0)
    ("ln(0.5 - q)", "sqrt(1.0 - p)", 1),
    # eight points, five offsets per call
    ("ln(0.5 - q)", "sqrt(1.0 - p)", 2),
    ("sqrt(0.12 - (p - 0.5)*q)", "0", 2),
])
def test_stacked_fd_sampling_raises_the_per_offset_error(x2, y2, count):
    """fd_jets evaluates several stencil offsets per call on a grid of few
    points; its domain error is the one that sampling one offset per call,
    in stencil order, raises first, with the same message and grid index."""
    imm = dsl.parse(FD_CHART.format(x2=x2, y2=y2))
    axes = [np.linspace(lo, hi, count) if count > 1 else np.array([(lo + hi) / 2])
            for lo, hi in imm.chart]
    points = np.meshgrid(*axes, indexing="ij")
    steps = [0.5 * ((ax[1] - ax[0]) if count > 1 else hi - lo)
             for ax, (lo, hi) in zip(axes, imm.chart)]
    with pytest.raises(DomainError) as one:
        for off in dsl.fd_stencil(3, 3):
            imm.values([u + k * h for u, k, h in zip(points, off, steps)])
    for order in (1, 3):
        with pytest.raises(DomainError) as stacked:
            dsl.fd_jets(imm.values, 3, points, order, steps)
        assert str(stacked.value) == str(one.value)
        assert stacked.value.location == one.value.location


def test_rank_check_detects_collapse():
    bad = dsl.Immersion("bad", 1, 1, ["u1", "u2", "u3"], [(-1, 1)] * 3,
                        [dsl.param("u1"), dsl.param("u1"), dsl.num(0.0)])
    points = [np.array([0.0]), np.array([0.0]), np.array([0.0])]
    with pytest.raises(NotImmersed):
        bad.rank_check(bad.jets(points, order=1).gradient())


def test_domain_error_from_division():
    text = PLANE.replace("x[1] = u1;", "x[1] = 1.0 / u1;")
    imm = dsl.parse(text)
    with pytest.raises(DomainError):
        imm.values([np.array([0.0])] + [np.array([0.1])] * 4)


def test_builtin_constraints(rng):
    # subgroup: normal coordinates vanish identically
    imm = dsl.builtin("heis_sub", 1, 2)
    u = [rng.uniform(-0.4, 0.5, 20) for _ in range(3)]
    v = imm.values(u)
    assert np.allclose(v[1], 0) and np.allclose(v[3], 0)
    # sphere: |z| = r and t = 0
    imm = dsl.builtin("sphere", 2, 1.0)
    u = [rng.uniform(lo, hi, 20) for lo, hi in imm.chart]
    v = imm.values(u)
    assert np.allclose(v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2, 1.0)
    assert np.allclose(v[4], 0.0)
    # holograph: z2 = z1^2 pointwise
    imm = dsl.builtin("holograph")
    u = [rng.uniform(lo, hi, 20) for lo, hi in imm.chart]
    v = imm.values(u)
    z1 = v[0] + 1j * v[2]
    z2 = v[1] + 1j * v[3]
    assert np.allclose(z2, z1 ** 2)
    # ellipsoid: boundary-model constraint Im w = |z|^2 with z2 = q z1^2 + c w
    imm = dsl.builtin("ellipsoid", 2, 1.0, 1.3)
    u = [rng.uniform(lo, hi, 20) for lo, hi in imm.chart]
    x1, x2, y1, y2, t = imm.values(u)
    q, c = 0.3, 0.3 / 2.3
    h = (y2 - 2 * q * x1 * y1) / c
    assert np.allclose(h, x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2, atol=1e-12)
    assert np.allclose(x2, q * (x1 ** 2 - y1 ** 2) + 2 * c * t)


def test_builtin_spec_parsing_errors():
    with pytest.raises(UnknownBuiltin):
        dsl.parse_surface_spec("builtin:torus(2)")
    with pytest.raises(UnknownBuiltin):
        dsl.parse_surface_spec("builtin:sphere(2)")
    with pytest.raises(UnknownBuiltin):
        dsl.parse_surface_spec("builtin:sphere(2,abc)")
    with pytest.raises(UnknownBuiltin):
        dsl.builtin("nope")


def test_transform_immersion_matches_action(rng):
    from cartanheis import heis, psh
    imm = dsl.builtin("sphere", 2, 1.0)
    g = psh.random_element(2, rng)
    moved = dsl.transform_immersion(imm, g)
    u = [rng.uniform(lo, hi, 10) for lo, hi in imm.chart]
    v0 = np.stack(imm.values(u))
    v1 = np.stack(moved.values(u))
    for k in range(10):
        p = heis.HPoint.from_coords(2, v0[:, k])
        assert np.allclose(v1[:, k], psh.apply(g, p).coords, atol=1e-13)


from hypothesis import given, settings, strategies as st


def _expr_strategy(depth=0):
    leaves = st.one_of(
        st.floats(0.0, 4.0).map(dsl.num),
        st.sampled_from(["u1", "u2", "u3"]).map(dsl.param),
        st.just(dsl.Pi()),
    )
    if depth >= 3:
        return leaves
    sub = st.deferred(lambda: _expr_strategy(depth + 1))
    return st.one_of(
        leaves,
        st.tuples(sub, sub).map(lambda ab: dsl.Bin("+", *ab)),
        st.tuples(sub, sub).map(lambda ab: dsl.Bin("-", *ab)),
        st.tuples(sub, sub).map(lambda ab: dsl.Bin("*", *ab)),
        st.tuples(sub, sub).map(lambda ab: dsl.Bin("/", ab[0], dsl.Bin(
            "+", dsl.fun("exp", dsl.num(0.0)), dsl.Bin("*", ab[1], ab[1])))),
        sub.map(dsl.Neg),
        st.tuples(sub, st.integers(0, 4)).map(lambda ak: dsl.Pow(*ak)),
        st.tuples(st.sampled_from(["sin", "cos"]), sub).map(
            lambda fa: dsl.Fun(*fa)),
    )


@settings(max_examples=60, deadline=None)
@given(_expr_strategy())
def test_random_expression_pretty_parse_fixed_point(expr):
    header = ("surface rnd {\n  n = 1; m = 1;\n  params = [u1, u2, u3];\n"
              "  chart = [[0.1, 0.9], [0.1, 0.9], [0.1, 0.9]];\n}\n"
              "y[1] = u2;\nt = u3;\n")
    text = header + f"x[1] = {dsl.expr_to_text(expr)};\n"
    imm = dsl.parse(text)
    pp = dsl.pretty_print(imm)
    assert dsl.pretty_print(dsl.parse(pp)) == pp
    # the reparsed tree evaluates to the same values
    u = [np.full(4, 0.3), np.full(4, 0.5), np.full(4, 0.7)]
    v1 = imm.values(u)
    v2 = dsl.parse(pp).values(u)
    assert np.allclose(v1[0], v2[0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", [
    "builtin:heis_sub(1.5,2)", "builtin:sphere(2.7,1)", "builtin:holograph(1.5)",
    "builtin:ellipsoid(2.5,1,1.3)", "builtin:sphere(2,inf)", "builtin:holograph(65)"])
def test_builtin_arguments_are_typed(spec):
    with pytest.raises(UnknownBuiltin):
        dsl.parse_surface_spec(spec)


def test_builtin_integral_floats_accepted():
    imm = dsl.parse_surface_spec("builtin:heis_sub(1.0,2.0)")
    assert (imm.m, imm.n) == (1, 2)
    assert dsl.parse_surface_spec("builtin:holograph(64)").n == 2


def test_shared_subexpressions_evaluate_once():
    # a doubly shared chain: a naive tree walk would take 2^80 steps
    e = dsl.param("u1")
    for _ in range(80):
        e = dsl.Bin("*", e, e)
    (v,) = dsl.evaluate([e], {"u1": np.array([1.0, -1.0])})
    assert np.array_equal(v, [1.0, 1.0])
    # a long left-leaning sum evaluates without recursion
    s = dsl.param("u1")
    for _ in range(5000):
        s = dsl.Bin("+", s, dsl.num(1.0))
    (v,) = dsl.evaluate([s], {"u1": np.array([0.5])})
    assert v[0] == 5000.5


def test_long_sum_source_reparses():
    terms = " + ".join(f"{k}*u1" for k in range(3000))
    text = ("surface long_sum {\n  n = 2; m = 1;\n  params = [u1, u2, u3];\n"
            "  chart = [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]];\n}\n"
            "x[1] = u1;  x[2] = 0.0;\ny[1] = u2;  y[2] = 0.0;\n"
            f"t = u3 + {terms};\n")
    imm = dsl.parse(text)
    src = dsl.pretty_print(imm)
    again = dsl.parse(src)
    assert dsl.pretty_print(again) == src
    pts = [np.array([-0.5, 0.1, 0.5])] * 3
    for a, b in zip(imm.values(pts), again.values(pts)):
        assert np.array_equal(a, b)


def test_high_degree_holograph_jets_are_fast():
    from cartanheis import darboux
    imm = dsl.holograph(16)
    grid = darboux.ChartGrid(imm.chart, 3)
    t0 = time.perf_counter()
    js = imm.jets(grid.points)
    assert time.perf_counter() - t0 < 1.0
    z = grid.points[0] + 1j * grid.points[1]
    assert np.allclose(js[1].value + 1j * js[3].value, z ** 16, rtol=1e-13)


def test_domain_error_location_from_chart_values():
    text = PLANE.replace("x[1] = u1;", "x[1] = sqrt(u1);")
    imm = dsl.parse(text)
    u1 = np.array([[0.5, 0.1], [-0.2, 0.3]])
    with pytest.raises(DomainError) as info:
        imm.values([u1] + [np.full((2, 2), 0.1)] * 4)
    assert info.value.location == (1, 0)


@pytest.mark.parametrize("prefix, suffix", [
    ("(" * 150, ")" * 150), ("-" * 150, ""), ("sin(" * 150, ")" * 150)])
def test_deep_nesting_is_a_syntax_error(prefix, suffix):
    text = PLANE.replace("x[1] = u1;", f"x[1] = {prefix}u1{suffix};")
    with pytest.raises(DslSyntaxError) as info:
        dsl.parse(text)
    assert info.value.line == 6
    shallow = PLANE.replace("x[1] = u1;", "x[1] = " + "(" * 90 + "u1" + ")" * 90 + ";")
    assert dsl.parse(shallow).n == 2


def test_immersions_survive_pickle(rng):
    """Every builtin, a surface file and a rigidly moved copy come back from
    pickle with the same values and order-3 jets on a 3^d grid."""
    import os
    import pickle

    from cartanheis import darboux, psh
    specs = ["heis_sub(1,2)", "heis_sub(2,3)", "sphere(2,1)", "sphere(3,1)",
             "holograph()", "holograph(3)", "ellipsoid(2,1,1.3)",
             "ellipsoid(3,1,1,1.3)", "ellipsoid(3,1,1.2,1.3)"]
    surfaces = [dsl.parse_surface_spec(f"builtin:{spec}") for spec in specs]
    surfaces.append(dsl.parse_surface_spec(os.path.join(
        os.path.dirname(__file__), "corpus", "ellipsoid_2.srf")))
    surfaces.append(dsl.transform_immersion(surfaces[2], psh.random_element(2, rng)))
    for imm in surfaces:
        again = pickle.loads(pickle.dumps(imm))
        assert again is not imm and again.coord_exprs == imm.coord_exprs
        assert (again.label, again.n, again.m, again.params, again.chart) == \
            (imm.label, imm.n, imm.m, imm.params, imm.chart)
        points = darboux.ChartGrid(imm.chart, 3).points
        for a, b in zip(imm.values(points), again.values(points)):
            assert np.array_equal(a, b), imm.label
        jet, jet_again = imm.jets(points, order=3), again.jets(points, order=3)
        assert np.array_equal(jet.c, jet_again.c), imm.label
