"""Command-line front end: parse surfaces, run pipelines, emit reports.

Exit codes: 0 success with all residuals under tolerance, 1 verdict failure
(an identity or rigidity check missed its threshold), 2 input errors
(surface syntax, singular charts, charts leaving the domain of sqrt/ln/
division, malformed arguments), 3 internal errors (a bug, not an input).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import darboux, dsl, invariants, psh, reconstruct, rigidity
from . import report as rep
from .errors import DslError, GeometryError, InputError, NotFlat

DEFAULT_TOLS = {
    "structure": 1e-8,
    "incon2": 1e-5,
    "gauss": 1e-6,
    "nver15": 1e-5,
    "nver28": 1e-6,
    "link": 1e-6,
    "theta_nn": 1e-5,
    "holonomy": 1e-6,
    "class": darboux.TOL_CLASS,
    "flat": 1e-7,
    "torsion": 1e-7,
    "roundtrip": 1e-5,
    "invariance": 1e-8,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cartanheis",
        description="Moving-frame invariants of pseudohermitian submanifolds "
                    "of the Heisenberg groups")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, surface=True):
        if surface:
            sp.add_argument("--surface", required=True,
                            help="builtin:name(args) or a surface file path")
        sp.add_argument("--grid", default="17",
                        help="per-axis sample counts, e.g. 17 or 17,17,9")
        sp.add_argument("--mode", choices=("ad", "fd"), default="ad")
        sp.add_argument("--policy", choices=("auto", "canonical", "nu", "reverse"),
                        default="auto")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE", help="override a named tolerance")
        sp.add_argument("--format", choices=("text", "structured"), default="text")
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("invariants", help="extract and summarise invariants"))
    common(sub.add_parser("check", help="full identity and integrability suite"))
    common(sub.add_parser("classify", help="verticality classification"))
    common(sub.add_parser("reconstruct",
                          help="assemble intrinsic data and reintegrate"))
    common(sub.add_parser("roundtrip",
                          help="extract, rebuild, integrate, and re-extract"))
    dec = sub.add_parser("decompose", help="factor a symmetry matrix")
    dec.add_argument("--matrix", required=True,
                     help="JSON file holding a (2n+2)x(2n+2) matrix")
    dec.add_argument("--format", choices=("text", "structured"), default="text")
    dec.add_argument("--out", default=None)
    return p


def _parse_tols(args, mode="ad") -> dict:
    tols = dict(DEFAULT_TOLS)
    if mode == "fd":
        for k in ("structure", "incon2", "gauss", "nver15", "nver28", "link",
                  "theta_nn", "invariance"):
            tols[k] *= darboux.FD_TOL_FACTOR
    for item in args.tol:
        if "=" not in item:
            raise InputError(f"bad --tol {item!r}; expected NAME=VALUE")
        k, v = item.split("=", 1)
        if k not in tols:
            raise InputError(f"unknown tolerance {k!r}; "
                             f"known: {', '.join(sorted(tols))}")
        try:
            val = float(v)
        except ValueError:
            val = math.nan
        if not (math.isfinite(val) and val > 0):
            raise InputError(f"tolerance {k!r} must be a positive finite "
                             f"number, got {v!r}")
        tols[k] = val
    return tols


def _parse_grid(text, d):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not parts or min(parts) < 1:
        raise InputError(f"--grid takes positive integer counts, e.g. 17 or "
                         f"17,17,9; got {text!r}")
    if len(parts) == 1:
        parts = parts * d
    if len(parts) != d:
        raise InputError(f"--grid needs 1 or {d} counts, got {len(parts)}")
    return parts


def _check_args(args):
    """Reject a negative --seed, and an --out that is a directory or lies in
    a missing one, before anything runs (InputError)."""
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed takes a non-negative integer, got {args.seed}")
    out = args.out
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise InputError(f"--out {out}: not a file in an existing directory")


def _emit(rpt, args):
    """The serialised report, written to --out (a failed write is an
    InputError) or returned for stdout."""
    blob = rep.serialize(rpt, args.format)
    if not args.out:
        return blob
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(blob)
    except OSError as e:
        raise InputError(f"--out {args.out}: {e.strerror or e}") from None
    return ""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        rpt, code = _dispatch(args)
        blob = _emit(rpt, args)
    # each toolkit error declares its exit code and prefix (``errors``); a
    # surface-language error carries its line and column instead of its type
    except GeometryError as e:
        kind = "" if isinstance(e, DslError) else f"{type(e).__name__}: "
        print(f"{e.prefix}: {kind}{e}", file=sys.stderr)
        return e.exit_code
    # a surface or matrix file that cannot be read or decoded is an input
    # too; any other ValueError is a bug
    except (OSError, InputError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug: report it without a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(blob)
    return code


def _base_setup(args):
    imm = dsl.parse_surface_spec(args.surface)
    counts = _parse_grid(args.grid, imm.nparams)
    if args.command != "classify" and min(counts) < 3:
        raise InputError("grid counts must be at least 3 per axis for "
                         "exterior-derivative commands")
    npoints = math.prod(counts)
    # near its index range numpy raises ValueError or IndexError, not
    # MemoryError; a grid of sys.maxsize // 16 points is past any memory
    try:
        if npoints <= sys.maxsize // 16:
            return imm, darboux.ChartGrid(imm.chart, counts)
    except MemoryError:
        pass
    raise InputError(f"--grid {args.grid}: a grid of {npoints} points is too "
                     f"large to allocate")


def _config_echo(args):
    cfg = {k: v for k, v in vars(args).items()
           if k in ("surface", "grid", "mode", "policy", "seed", "command",
                    "format")}
    cfg["tol_overrides"] = sorted(args.tol)
    return cfg


def _holonomy_note(verdict):
    """The holonomy diagnostic: value, path taken and, when the edges were
    subdivided, the refinement order observed."""
    note = f"holonomy per area {verdict['holonomy']:.3e} ({verdict['path']} path"
    if "edge_refinement_order" in verdict:
        note += f", edge refinement order {verdict['edge_refinement_order']:.2f}"
    return note + ")"


def _integrability(rpt, n, grid, slots, tol):
    """The holonomy verdict on the one-form with slot values ``slots``: the
    report's ``integrable`` verdict, the holonomy note and, when it fails,
    the reason.  Returns the form and whether it passed."""
    eta = reconstruct.EtaForm(n, grid, slots)
    verdict = reconstruct.integrability_verdict(eta, tol)
    rpt["verdicts"]["integrable"] = verdict["pass"]
    rpt["diagnostics"].append(_holonomy_note(verdict))
    if not verdict["pass"]:
        rpt["diagnostics"].append(verdict["reason"])
    return eta, verdict["pass"]


def _invariant_payload(rpt, summary, tols):
    """The class, field tables and residuals of one surface's summary."""
    rpt["metadata"]["gauge"] = summary.plan.policy
    rpt["metadata"]["decisions"] = summary.plan.decisions()
    rpt["class"] = summary.kind
    rep.attach_fields(rpt, *(summary.table(key) for key in
                             ("nu", "II_norm", "torsion_norm", "R")))
    for key, value in summary.residuals.items():
        rpt["residuals"][key] = rep.residual_entry(value, tols[key])


class _Keep:
    """What check, reconstruct and roundtrip keep of each block's Analysis,
    as a sweep's ``visit``; it pickles, so it runs on the sweep's workers.

    Points: ``frames``, the moving-frame matrices (D, D, points), and the
    slot values (d, D, D, points) of the one-form that the holonomy verdict
    reads: for check ``slots``, the Maurer-Cartan form's, which an FD
    sweep's structure residual reads too; for reconstruct and roundtrip
    ``eta``, those of the form assembled from intrinsic data.  Values:
    ``corner``, the frame at the base corner (block 0 alone); for check in
    the nu gauge of a completely non-vertical hypersurface the maxima
    ``link`` and ``theta_nn`` of the two gauge identities; for reconstruct
    and roundtrip the maxima of the assembly's defects
    (``reconstruct.intrinsic_defects``).
    """

    def __init__(self, check, tol_class):
        self.check, self.tol_class = check, tol_class

    def __call__(self, block, an):
        D = 2 * an.n + 2
        values = {}
        if block.start == 0:
            values["corner"] = an.ff.psh_at((0,) * len(an.batch)).mat
        points = {"frames": an.ff.matrix_values().reshape(D, D, -1)}
        if not self.check:
            data = reconstruct.intrinsic_data_from_analysis(an)
            values.update(reconstruct.intrinsic_defects(data))   # gated after the merge
            points["eta"] = reconstruct.eta_from_intrinsic(data).slots.reshape(
                an.d, D, D, -1)
            return points, values
        points["slots"] = an.mc.values.reshape(an.d, D, D, -1)
        if (an.ff.plan.verticality(self.tol_class).kind
                == rigidity.COMPLETELY_NON_VERTICAL and an.codim == 1
                and an.ff.policy == "nu"):
            values.update(link=an.h_torsion_link_residual(),
                          theta_nn=an.theta_nn_residual())
        return points, values


def _reconstruction_sweep(imm, grid, args, tols):
    """The summary of ``imm`` over ``grid`` and the order-0 arrays that
    check, reconstruct and roundtrip read, from one blocked sweep.

    Returns the summary and a dict of what ``_Keep`` kept, over the grid:
    ``frames`` (D, D, *grid), ``slots`` or ``eta`` (d, D, D, *grid),
    ``corner`` as a group element and the maxima; the summary no longer
    holds the arrays.  The gates of that assembly
    (``reconstruct.check_intrinsic_defects``) judge the whole grid's
    maxima after the sweep, so the error they raise does not depend on the
    blocks.
    """
    check = args.command == "check"
    summary = invariants.sweep(imm, grid, policy=args.policy, mode=args.mode,
                               tol_class=tols["class"], visit=_Keep(check, tols["class"]))
    if not check:
        reconstruct.check_intrinsic_defects(summary.visited)
    kept = dict(summary.visited, corner=psh.PSHElement(imm.n, summary.visited["corner"]))
    for key in [key for key in summary.fields if key not in invariants.FIELDS]:
        kept[key] = summary.field(key)
        del summary.fields[key]
    return summary, kept


def _dispatch(args):
    if args.command == "decompose":
        return _cmd_decompose(args)
    tols = _parse_tols(args, args.mode)
    rpt = rep.new_report(args.command, _config_echo(args))

    imm, grid = _base_setup(args)
    if args.command == "classify":
        plan = darboux.plan_frame(imm, grid, policy=args.policy, mode=args.mode)
        rpt["metadata"]["gauge"] = plan.policy
        rpt["metadata"]["decisions"] = plan.decisions()
        cls = plan.verticality(tols["class"])
        rpt["class"] = cls.kind
        rpt["nu"] = {"min": cls.nu_min, "max": cls.nu_max, "mean": plan.nu_mean}
        return rpt, 0

    if args.command == "invariants":
        summary = invariants.sweep(imm, grid, policy=args.policy, mode=args.mode,
                                   tol_class=tols["class"])
        _invariant_payload(rpt, summary, tols)
        return rpt, 0 if rep.all_pass(rpt) else 1

    summary, kept = _reconstruction_sweep(imm, grid, args, tols)
    _invariant_payload(rpt, summary, tols)
    kind, codim, n = summary.kind, imm.n - imm.m, imm.n
    frames = kept["frames"]

    def moved_fields(moved):
        """The four fields of a moved copy of the surface, by its own sweep."""
        return invariants.sweep(moved, grid, policy=args.policy, mode=args.mode,
                                tol_class=tols["class"], residuals=False)

    if args.command == "check":
        _integrability(rpt, n, grid, kept.pop("slots"), tols["holonomy"])
        if "link" in kept:
            rpt["verdicts"]["h_torsion_link"] = kept["link"] <= tols["link"]
            rpt["verdicts"]["theta_nn"] = kept["theta_nn"] <= tols["theta_nn"]
        rng = np.random.default_rng(args.seed)
        Phi = psh.random_element(imm.n, rng)
        image = moved_fields(dsl.transform_immersion(imm, Phi))
        worst = float(np.max([np.max(np.abs(image.fields[key] - summary.fields[key]))
                              for key in invariants.FIELDS]))
        rpt["verdicts"]["rigid_motion_invariance"] = worst <= tols["invariance"]
        rpt["diagnostics"].append(f"rigid-motion invariance gap {worst:.3e}")
        if kind == rigidity.VERTICAL and codim == 1:
            try:
                fit = rigidity.fit_flat(kind, codim, kept["corner"], frames[1:, 0],
                                        summary.field("II_norm2"), tols["flat"])
                rpt["fits"]["flat"] = {"motion": fit.motion.mat.tolist(),
                                       "image_residual": fit.image_residual}
            except NotFlat:
                pass
        return rpt, 0 if rep.all_pass(rpt) else 1

    eta, integrable = _integrability(rpt, n, grid, kept.pop("eta"), tols["holonomy"])
    if not integrable:
        return rpt, 1
    rng = np.random.default_rng(args.seed)
    g0 = psh.random_element(imm.n, rng) if args.command == "roundtrip" \
        else psh.identity(imm.n)
    base = psh.compose(g0, kept["corner"])
    sol = reconstruct.integrate_frame(eta, base, substeps=2, stencil=6,
                                      check_integrability=False)
    # nothing reads the assembled form again: the moved copy's sweep below
    # need not hold it
    del eta
    A = np.moveaxis(frames, (0, 1), (-2, -1))
    f_orig = reconstruct.FrameSolution(imm.n, grid, A, (0,) * grid.ndim, 0.0)
    ghat, const_res = reconstruct.congruence(f_orig, sol)
    moved = dsl.transform_immersion(imm, ghat)
    Xm = np.stack(moved.values(grid.points), axis=-1)
    gap = float(np.max(np.abs(sol.points() - Xm)))
    rpt["diagnostics"].append(f"congruence constancy {const_res:.3e}")
    rpt["verdicts"]["reconstruction_points"] = gap <= tols["roundtrip"]
    rpt["diagnostics"].append(f"reintegrated point gap {gap:.3e}")
    if args.command == "roundtrip":
        image = moved_fields(moved)
        gaps = {label: float(np.max(np.abs(image.table(key) - summary.table(key))))
                for label, key in zip(("nu", "II", "A", "R"), invariants.TABLES)}
        worst = float(np.max(list(gaps.values())))
        rpt["verdicts"]["roundtrip_fields"] = worst <= tols["roundtrip"]
        rpt["diagnostics"].append(
            "re-extracted field gaps " +
            " ".join(f"{k}={v:.3e}" for k, v in sorted(gaps.items())))
    if kind == rigidity.COMPLETELY_NON_VERTICAL and codim == 1 \
            and float(np.max(summary.table("torsion_norm"))) < tols["torsion"]:
        if summary.plan.policy == "nu":
            fit = rigidity.fit_sphere(kind, codim, summary.plan.policy, frames[1:, 0],
                                      frames[1:2 * n + 1, 1 + n + imm.m],
                                      summary.field("nu"), summary.field("torsion_norm2"),
                                      tols["torsion"])
            rpt["fits"]["sphere"] = {
                "center": fit.center.coords.tolist(), "radius": fit.radius,
                "center_residual": fit.center_residual,
                "radius_residual": fit.radius_residual}
        else:
            rpt["diagnostics"].append(
                f"no sphere fit: it reads frames in the nu gauge, and these were "
                f"built in the {summary.plan.policy} gauge")
    return rpt, 0 if rep.all_pass(rpt) else 1


def _read_matrix(path):
    """The matrix in a JSON file; an InputError unless it is finite, square
    and of even size 2n+2 >= 4."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        mat = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{path}: expected a matrix of numbers") from None
    d = mat.shape[0] if mat.ndim == 2 else 0
    if mat.shape != (d, d) or d % 2 or d < 4:
        raise InputError(f"{path}: expected a square matrix of even size "
                         f"2n+2 >= 4, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InputError(f"{path}: matrix entries must be finite")
    return mat


def _cmd_decompose(args):
    mat = _read_matrix(args.matrix)
    rpt = rep.new_report("decompose", {"matrix": args.matrix})
    diag = psh.psh_validate(mat, 1e-8)
    rpt["verdicts"]["valid_group_element"] = diag.ok
    rpt["diagnostics"].append(
        "validation residuals " +
        " ".join(f"{k}={v:.2e}" for k, v in sorted(diag.residuals.items())))
    if not diag.ok:
        return rpt, 1
    n = (mat.shape[0] - 2) // 2
    p, R = psh.decompose(psh.PSHElement(n, mat))
    rpt["fits"]["flat"] = None
    rpt["diagnostics"].append(f"translation {np.round(p.coords, 12).tolist()}")
    rpt["diagnostics"].append(f"rotation {np.round(R, 12).tolist()}")
    return rpt, 0


if __name__ == "__main__":
    sys.exit(main())
