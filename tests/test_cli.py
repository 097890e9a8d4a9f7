import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from cartanheis import cli, dsl, errors, psh, report
from conftest import coordinate_slice_plane

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def run_cli(*args, capsys=None):
    return cli.main(list(args))


def test_invariants_sphere_exit_zero(capsys):
    code = run_cli("invariants", "--surface", "builtin:sphere(2,1)",
                   "--grid", "5")
    out = capsys.readouterr().out
    assert code == 0
    assert "CompletelyNonVertical" in out
    assert "|nu|" in out


def test_classify_vertical(capsys):
    code = run_cli("classify", "--surface", "builtin:heis_sub(1,2)",
                   "--grid", "3")
    assert code == 0
    assert "Vertical" in capsys.readouterr().out


def test_syntax_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.srf"
    bad.write_text(open(os.path.join(CORPUS, "unknown_function.srf")).read())
    code = run_cli("invariants", "--surface", str(bad))
    err = capsys.readouterr().err
    assert code == 2
    assert "line 6" in err and "col 8" in err


def test_missing_file_exit_two(capsys):
    assert run_cli("invariants", "--surface", "/nonexistent.srf") == 2


def test_unknown_builtin_exit_two(capsys):
    assert run_cli("invariants", "--surface", "builtin:banana(1)") == 2


def test_singular_surface_exit_two(tmp_path, capsys):
    srf = tmp_path / "slice.srf"
    srf.write_text(dsl.pretty_print(coordinate_slice_plane()))
    assert run_cli("invariants", "--surface", str(srf), "--grid", "5") == 2


def test_structured_output_deterministic_and_reparsable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = run_cli("invariants", "--surface", "builtin:ellipsoid(2,1,1.3)",
                       "--grid", "5", "--format", "structured",
                       "--out", str(path), "--seed", "11")
        assert code == 0
    blob_a, blob_b = a.read_bytes(), b.read_bytes()
    assert blob_a == blob_b
    tree = json.loads(blob_a.decode())
    assert tree["class"] == "CompletelyNonVertical"
    assert set(tree["residuals"]) == set(report.RESIDUAL_KEYS)
    for key in ("structure", "incon2", "nver15", "nver28"):
        assert tree["residuals"][key]["pass"] is True
    # summary scalars recompute from the bundled tables
    nu = np.array(tree["tables"]["nu"])
    assert np.isclose(nu.min(), tree["nu"]["min"])
    assert np.isclose(nu.mean(), tree["nu"]["mean"])
    assert json.dumps(tree, sort_keys=True) == json.dumps(
        json.loads(blob_b.decode()), sort_keys=True)


def test_tolerance_override_forces_failure(capsys):
    code = run_cli("invariants", "--surface", "builtin:sphere(2,1)",
                   "--grid", "5", "--tol", "structure=1e-30")
    assert code == 1


def test_bad_tolerance_name(capsys):
    assert run_cli("invariants", "--surface", "builtin:sphere(2,1)",
                   "--tol", "bogus=1") == 2


def test_check_command(capsys):
    code = run_cli("check", "--surface", "builtin:ellipsoid(2,1,1.3)",
                   "--grid", "5", "--seed", "4")
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict integrable: yes" in out
    assert "verdict rigid_motion_invariance: yes" in out


def test_check_fits_at_the_report_class_tolerance(capsys):
    # at --tol class=2 the unit sphere (|nu| = 1) is vertical: the flat fit
    # takes that class, and the report carries a fit whose image residual
    # shows the sphere is not the vertical subgroup (exit 1 for the Gauss
    # residual of a non-vertical surface)
    code = run_cli("check", "--surface", "builtin:sphere(2,1)", "--grid", "5",
                   "--tol", "class=2", "--format", "structured")
    captured = capsys.readouterr()
    rpt = json.loads(captured.out)
    assert code == 1
    assert rpt["class"] == "Vertical" and rpt["fits"]["flat"]["image_residual"] > 0.1
    assert not rpt["residuals"]["gauss"]["pass"]
    assert "WrongClass" not in captured.err


def test_reconstruct_command(capsys):
    code = run_cli("reconstruct", "--surface", "builtin:sphere(2,1)",
                   "--grid", "7")
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict reconstruction_points: yes" in out
    assert "sphere fit" in out


def test_decompose_command(tmp_path, capsys):
    rng = np.random.default_rng(3)
    g = psh.random_element(2, rng)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.mat.tolist()))
    assert run_cli("decompose", "--matrix", str(path)) == 0
    out = capsys.readouterr().out
    assert "translation" in out and "rotation" in out
    bad = np.eye(6)
    bad[0, 0] = 2.0
    path.write_text(json.dumps(bad.tolist()))
    assert run_cli("decompose", "--matrix", str(path)) == 1
    # decompose reads no tolerance and no seed, so it takes neither option
    for extra in (["--tol", "flat=1e-3"], ["--seed", "3"]):
        with pytest.raises(SystemExit) as info:
            run_cli("decompose", "--matrix", str(path), *extra)
        assert info.value.code == 2


@pytest.mark.parametrize("text, reason", [
    ("[[1, 0], [0, 1]]", "shape (2, 2)"),
    (json.dumps(np.eye(3).tolist()), "shape (3, 3)"),
    (json.dumps(np.zeros((5, 4)).tolist()), "shape (5, 4)"),
    ("[1, 0, 0, 0]", "shape (4,)"),
    ("[]", "shape (0,)"),
    ("[[1, 0, 0, 0], [0, 1, 0]]", "matrix of numbers"),
    (json.dumps(np.eye(4).tolist()).replace("0.0", "NaN", 1), "finite"),
    (json.dumps(np.eye(4).tolist()).replace("0.0", "Infinity", 1), "finite"),
], ids=["2x2", "3x3", "5x4", "vector", "empty", "ragged", "nan", "inf"])
def test_decompose_rejects_bad_matrix_file(text, reason, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("decompose", "--matrix", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and reason in err, err
    assert "Warning" not in err and not caught


def test_grid_validation(capsys):
    assert run_cli("invariants", "--surface", "builtin:sphere(2,1)",
                   "--grid", "2") == 2
    assert run_cli("invariants", "--surface", "builtin:sphere(2,1)",
                   "--grid", "5,5") == 2
    for bad in ("0", "-2", "abc", "3,"):
        capsys.readouterr()
        assert run_cli("classify", "--surface", "builtin:heis_sub(1,2)",
                       "--grid", bad) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "--grid" in err, (bad, err)


@pytest.mark.parametrize("command, builds", [("invariants", 1), ("check", 2),
                                             ("classify", 0)])
def test_one_frame_build_per_surface(command, builds, monkeypatch, capsys):
    from cartanheis import darboux
    calls = []
    build = darboux.FrameField._build

    def counted(self, order):
        calls.append(self.imm)
        return build(self, order)

    monkeypatch.setattr(darboux.FrameField, "_build", counted)
    assert run_cli(command, "--surface", "builtin:sphere(2,1)", "--grid", "5") == 0
    assert len(calls) == builds


def test_corpus_valid_files_roundtrip():
    manifest = json.load(open(os.path.join(CORPUS, "manifest.json")))
    assert len(manifest["valid"]) + len(manifest["invalid"]) >= 30
    for name in manifest["valid"]:
        text = open(os.path.join(CORPUS, f"{name}.srf")).read()
        imm = dsl.parse(text)
        pp = dsl.pretty_print(imm)
        assert dsl.pretty_print(dsl.parse(pp)) == pp, name


def test_corpus_invalid_files_exit_two_with_position(capsys):
    manifest = json.load(open(os.path.join(CORPUS, "manifest.json")))
    for name, (line, col) in manifest["invalid"].items():
        path = os.path.join(CORPUS, f"{name}.srf")
        code = run_cli("invariants", "--surface", path)
        err = capsys.readouterr().err
        assert code == 2, name
        assert f"line {line}" in err and f"col {col}" in err, (name, err)


def test_empty_report_serializes():
    rpt = report.new_report("invariants", {"surface": None})
    blob = report.serialize(rpt, "structured")
    tree = json.loads(blob)
    assert tree["metadata"]["toolkit"] == "cartanheis"
    assert report.serialize(rpt, "text").startswith("cartanheis")


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_bad_tolerance_value(value, capsys):
    assert run_cli("invariants", "--surface", "builtin:sphere(2,1)",
                   "--grid", "5", "--tol", f"structure={value}") == 2
    assert "structure" in capsys.readouterr().err


def test_runs_without_scipy():
    # the package must import and run a full roundtrip with scipy blocked
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from cartanheis import cli\n"
            "sys.exit(cli.main(['roundtrip', '--surface', "
            "'builtin:sphere(2,1)', '--grid', '5']))\n")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("spec", ["builtin:heis_sub(1.5,2)", "builtin:sphere(2.7,1)",
                                  "builtin:holograph(1.5)"])
def test_non_integral_builtin_argument_exit_two(spec, capsys):
    assert run_cli("check", "--surface", spec, "--grid", "5") == 2
    assert "must be a finite integer" in capsys.readouterr().err


def test_huge_holograph_degree_exits_two_promptly(capsys):
    t0 = time.perf_counter()
    assert run_cli("check", "--surface", "builtin:holograph(1e9)", "--grid", "5") == 2
    assert time.perf_counter() - t0 < 5.0
    assert "degree" in capsys.readouterr().err


# every size here fails before any work: more chart axes than numpy arrays
# have room for, an n past the builtin bound, or a grid of 10^15 points or more
@pytest.mark.parametrize("command, spec, grid, words", [
    ("classify", "builtin:sphere(16,1)", "1", "at most 27 chart axes"),
    ("classify", "builtin:heis_sub(15,15)", "1", "at most 27 chart axes"),
    ("classify", "builtin:ellipsoid(32," + "1," * 31 + "1.3)", "1",
     "at most 27 chart axes"),
    ("invariants", "builtin:heis_sub(1,100000)", "3", "n <= 64"),
    ("invariants", "builtin:sphere(3000,1)", "3", "n <= 64"),
    ("invariants", "builtin:sphere(2,1)", "100000",
     "a grid of 1000000000000000 points is too large"),
    ("classify", "builtin:sphere(2,1)", "1,1,9223372036854775808",
     "a grid of 9223372036854775808 points is too large"),
])
def test_oversized_input_exits_two_promptly(command, spec, grid, words, capsys):
    t0 = time.perf_counter()
    assert run_cli(command, "--surface", spec, "--grid", grid) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("input error:") and words in err


def test_chart_domain_failure_exit_two_with_location(capsys):
    code = run_cli("check", "--surface", "builtin:ellipsoid(2,1,100)", "--grid", "5")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: DomainError")
    assert "grid index (" in err


# exp(800 u1) overflows at u1 = 1 only, where x2 is inf - inf
NON_FINITE = """surface overflow {
  n = 2; m = 1;
  params = [u1, u2, u3];
  chart = [[0.0, 1.0], [-0.45, 0.55], [-0.45, 0.55]];
}
x[1] = u1;
x[2] = exp(800 * u1) - exp(800 * u1);
y[1] = u2;
y[2] = 0.0;
t = u3;
"""


@pytest.mark.parametrize("command", ["check", "invariants", "classify"])
def test_non_finite_immersion_exit_two_with_location(tmp_path, capsys, command):
    path = tmp_path / "overflow.srf"
    path.write_text(NON_FINITE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(command, "--surface", str(path), "--grid", "5")
    assert code == 2
    assert capsys.readouterr().err == ("input error: DomainError: immersion or its "
                                       "derivatives not finite at grid index (4, 0, 0)\n")
    assert not caught


def test_internal_error_exit_three(monkeypatch, capsys):
    from cartanheis import invariants

    def broken(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(invariants.Analysis, "restriction_residuals", broken)
    code = run_cli("invariants", "--surface", "builtin:heis_sub(1,2)", "--grid", "3")
    assert code == 3
    assert capsys.readouterr().err.strip() == "internal error: RuntimeError: boom"


def test_nan_restriction_entry_fails_incon2(monkeypatch, capsys):
    # a NaN that is not the first entry of the suite must reach the verdict
    from cartanheis import invariants
    exact = invariants.Analysis.second_ff_residuals

    def nan_mixed_t(self):
        return {**exact(self), "mixed_t": float("nan")}

    monkeypatch.setattr(invariants.Analysis, "second_ff_residuals", nan_mixed_t)
    code = run_cli("invariants", "--surface", "builtin:heis_sub(1,2)", "--grid", "3",
                   "--format", "structured")
    incon2 = json.loads(capsys.readouterr().out)["residuals"]["incon2"]
    assert code == 1
    assert np.isnan(incon2["value"]) and incon2["pass"] is False


def test_nan_nu_is_a_located_domain_error(monkeypatch, capsys):
    # a NaN in the |nu| field has no verticality class: the plan pass stops
    # at its grid index instead of classifying the grid as mixed
    from cartanheis import darboux
    exact = darboux.classify

    def nan_entry(nu_norm, tol=darboux.TOL_CLASS):
        nu = np.array(nu_norm, dtype=float)
        nu.flat[5] = np.nan
        return exact(nu, tol)

    monkeypatch.setattr(darboux, "classify", nan_entry)
    code = run_cli("classify", "--surface", "builtin:sphere(2,1)", "--grid", "3",
                   "--format", "structured")
    err = capsys.readouterr().err
    assert code == 2
    assert "DomainError: |nu| not finite at grid index (0, 1, 2)" in err


# the class behind each gauge and the normal candidates its frame used
DECISIONS = {"builtin:sphere(2,1)": ("CompletelyNonVertical", ["-nu"]),
             "builtin:heis_sub(1,2)": ("Vertical", ["X2"])}


@pytest.mark.parametrize("spec,gauge", [("builtin:sphere(2,1)", "nu"),
                                        ("builtin:heis_sub(1,2)", "canonical")])
def test_report_records_the_resolved_gauge(spec, gauge, capsys):
    cls, normals = DECISIONS[spec]
    assert run_cli("classify", "--surface", spec, "--grid", "5",
                   "--format", "structured") == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["metadata"]["config"]["policy"] == "auto"
    assert tree["metadata"]["gauge"] == gauge
    decisions = tree["metadata"]["decisions"]
    assert decisions["gauge"]["class"] == cls
    assert decisions["normal_candidates"] == normals
    assert len(decisions["tangent_seed_axes"]) == 1      # m = 1: one complex leg
    assert decisions["pivot_axis"] not in decisions["tangent_seed_axes"]
    assert run_cli("classify", "--surface", spec, "--grid", "5") == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"gauge: {gauge}" in lines[2]
    assert lines[3].startswith(f"  decisions: gauge class {cls} (min |nu| ")
    assert run_cli("classify", "--surface", spec, "--grid", "5",
                   "--policy", "reverse", "--format", "structured") == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["gauge"] == "reverse"


def test_holonomy_diagnostic_states_path(tmp_path, capsys):
    blobs = []
    for _ in range(2):
        path = tmp_path / "check.json"
        assert run_cli("check", "--surface", "builtin:sphere(2,1)", "--grid", "5",
                       "--format", "structured", "--out", str(path)) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    notes = json.loads(blobs[0].decode())["diagnostics"]
    assert any(n.startswith("holonomy per area") and n.endswith("(fast path)")
               for n in notes), notes
    # at 7^3 the reintegrated points miss their gate (exit 1); only the
    # holonomy note matters here
    run_cli("roundtrip", "--surface", "builtin:holograph()", "--grid", "7",
            "--format", "structured")
    notes = json.loads(capsys.readouterr().out)["diagnostics"]
    hol = [n for n in notes if n.startswith("holonomy per area")]
    assert len(hol) == 1 and "(subdivided path, edge refinement order 1.2" in hol[0]


@pytest.mark.parametrize("command", ["classify", "check"])
@pytest.mark.parametrize("make_args, flag, before_run", [
    (lambda tmp: ["--out", str(tmp / "missing" / "r.json")], "--out", True),
    (lambda tmp: ["--out", str(tmp)], "--out", True),
    (lambda tmp: ["--seed", "-1"], "--seed", True),
    # a write that fails after the run: /dev/full reports a full device
    (lambda tmp: ["--out", "/dev/full"], "--out", False),
], ids=["missing_dir", "directory", "negative_seed", "write_fails"])
def test_bad_out_or_seed_exit_two(command, make_args, flag, before_run, tmp_path,
                                  monkeypatch, capsys):
    args = make_args(tmp_path)
    if "/dev/full" in args and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    if before_run:
        def ran(*a, **k):
            raise AssertionError("the pipeline ran")
        monkeypatch.setattr(cli, "_dispatch", ran)
    code = run_cli(command, "--surface", "builtin:sphere(2,1)", "--grid", "3", *args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"input error: {flag}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
def test_sphere_fit_only_in_the_nu_gauge(command, capsys):
    # the fit reads the normal leg of the nu gauge; in another gauge the
    # report leaves it out and says why
    for policy, fitted in (("canonical", False), ("reverse", False), ("nu", True),
                           ("auto", True)):
        code = run_cli(command, "--surface", "builtin:sphere(2,1)", "--grid", "5",
                       "--policy", policy, "--format", "structured")
        captured = capsys.readouterr()
        rpt = json.loads(captured.out)
        assert code == 0 and captured.err == "", (policy, captured.err)
        notes = [n for n in rpt["diagnostics"] if n.startswith("no sphere fit")]
        if fitted:
            assert not notes and abs(rpt["fits"]["sphere"]["radius"] - 1) < 1e-9, policy
        else:
            assert rpt["fits"]["sphere"] is None, policy
            assert notes == [f"no sphere fit: it reads frames in the nu gauge, and "
                             f"these were built in the {policy} gauge"]


def test_overflowing_chart_tangents_exit_two_with_location(capsys):
    # the contact pairing of sphere(2,1e155) overflows; no numpy warning escapes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("invariants", "--surface", "builtin:sphere(2,1e155)",
                       "--grid", "3")
    assert code == 2
    assert capsys.readouterr().err == ("input error: DomainError: chart tangents "
                                       "not finite at grid index (0, 0, 0)\n")
    assert not caught


@pytest.mark.parametrize("radius, where", [("1e100", "(0, 1, 0)"),
                                           ("1e154", "(0, 2, 0)")])
def test_huge_chart_tangents_exit_two_at_the_largest(capsys, radius, where):
    # finite tangents whose square overflows are an input error at the index
    # of the largest, not a vanishing contact form
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("invariants", "--surface", f"builtin:sphere(2,{radius})",
                       "--grid", "3")
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("input error: DomainError: chart tangents too large: their "
                   f"square overflows at grid index {where}\n")
    assert "SingularPoint" not in err
    assert not caught


@pytest.mark.parametrize("radius", ["1e7", "1e20", "1e60", "1e100", "1e154", "1e155"])
def test_huge_spheres_run_or_fail_as_inputs(capsys, radius):
    # the sphere is CR at every radius: its seed floor follows the
    # horizontal tangents, and a seed Gram matrix that is singular in
    # floating point is an input error at its grid index, not a bug
    for command in ("invariants", "check", "classify", "reconstruct", "roundtrip"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--surface", f"builtin:sphere(2,{radius})",
                           "--grid", "3")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, err)
        assert "could not complete a J-adapted tangent frame" not in err
        assert not caught, command
        if radius == "1e60":
            assert err == ("input error: DomainError: the Gram matrix of the tangent "
                           "seeds is singular at grid index (2, 1, 2)\n")


def test_internal_linalg_error_exit_three(monkeypatch, capsys):
    # a LinAlgError is a ValueError, but not an input error
    from cartanheis import darboux

    def broken(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(darboux, "coframe_condition", broken)
    code = run_cli("invariants", "--surface", "builtin:sphere(2,1)", "--grid", "3")
    assert code == 3
    assert capsys.readouterr().err == ("internal error: LinAlgError: SVD did not "
                                       "converge\n")


def test_binary_surface_file_exit_two(tmp_path, capsys):
    path = tmp_path / "binary.srf"
    path.write_bytes(bytes(range(256)))
    assert run_cli("invariants", "--surface", str(path), "--grid", "3") == 2
    assert capsys.readouterr().err.startswith("input error: 'utf-8' codec")


def test_check_and_reconstruct_give_the_same_integrability_reason(capsys):
    notes = {}
    for command in ("check", "reconstruct"):
        code = run_cli(command, "--surface", "builtin:heis_sub(1,2)", "--grid", "5",
                       "--tol", "holonomy=1e-300", "--format", "structured")
        rpt = json.loads(capsys.readouterr().out)
        assert code == 1 and rpt["verdicts"]["integrable"] is False
        hol = [i for i, n in enumerate(rpt["diagnostics"])
               if n.startswith("holonomy per area")]
        assert len(hol) == 1
        # the reason follows the holonomy note
        notes[command] = rpt["diagnostics"][hol[0]:hol[0] + 2]
    assert notes["check"] == notes["reconstruct"]
    assert "not integrable" in notes["check"][1]


# the exit code and message prefix of every exception class in ``errors``:
# a fault of the input exits 2, a failed verdict and any other toolkit
# error exit 1
INPUT, VERDICT, OTHER = (2, "input error"), (1, "verdict failure"), (1, "error")
ERROR_EXITS = {
    "GeometryError": OTHER, "DimensionMismatch": OTHER, "InvalidFrame": OTHER,
    "IllConditionedCoframe": OTHER, "DegeneratePoint": OTHER, "ProjectionDrift": OTHER,
    "InputFault": INPUT, "InputError": INPUT, "DomainError": INPUT, "NotImmersed": INPUT,
    "SingularPoint": INPUT, "NotCRInvariant": INPUT, "UnknownBuiltin": INPUT,
    "DslError": INPUT, "DslSyntaxError": INPUT, "UndeclaredParameter": INPUT,
    "DslDimensionMismatch": INPUT,
    "VerdictFailure": VERDICT, "WrongClass": VERDICT, "NotFlat": VERDICT,
    "NotTorsionFree": VERDICT, "IntegrabilityFailure": VERDICT,
}


def test_the_exit_table_names_every_error_class():
    declared = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, Exception)}
    assert declared == set(ERROR_EXITS)


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
def test_every_error_class_exits_with_its_declared_code(name, monkeypatch, capsys):
    cls = getattr(errors, name)
    code, prefix = ERROR_EXITS[name]
    if issubclass(cls, errors.GeometryError):
        assert (cls.exit_code, cls.prefix) == (code, prefix)

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_dispatch", fail)
    assert run_cli("classify", "--surface", "builtin:sphere(2,1)", "--grid", "3") == code
    # a surface-language error carries its line and column, not its type
    typed = issubclass(cls, errors.GeometryError) and not issubclass(cls, errors.DslError)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}: {name + ': ' if typed else ''}boom\n"


def test_fd_classify_of_27_chart_axes_is_prompt(capsys):
    """One FD point of a 27-axis surface samples 26 317 stencil offsets in
    one call of the immersion, not one call each."""
    start = time.perf_counter()
    code = run_cli("classify", "--mode", "fd", "--surface", "builtin:sphere(14,1)",
                   "--grid", "1", "--format", "structured")
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["class"] == "CompletelyNonVertical"
    assert elapsed < 5, elapsed
