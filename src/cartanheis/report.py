"""Report assembly and serialization for the command-line front end.

The structured format is a stable JSON tree with fixed field names
(class, nu.*, II.norm.*, torsion.norm.*, webster.R.*, residuals.*, fits.*);
every residual carries the threshold it was compared against so verdicts
can be audited, and the summary scalars are recomputable from the bundled
per-gridpoint tables.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__

RESIDUAL_KEYS = ("structure", "incon2", "gauss", "nver15", "nver28")


def summary(field) -> dict:
    arr = np.asarray(field, dtype=float)
    return {"min": float(np.min(arr)), "max": float(np.max(arr)),
            "mean": float(np.mean(arr))}


def residual_entry(value, threshold) -> dict:
    return {"value": float(value), "threshold": float(threshold),
            "pass": bool(value <= threshold)}


def new_report(command, config: dict) -> dict:
    return {
        "metadata": {"toolkit": "cartanheis", "version": __version__,
                     "command": command, "config": config},
        "class": None,
        "nu": None,
        "II": {"norm": None},
        "torsion": {"norm": None},
        "webster": {"R": None},
        "residuals": {k: None for k in RESIDUAL_KEYS},
        "fits": {"sphere": None, "flat": None},
        "tables": None,
        "diagnostics": [],
        "verdicts": {},
    }


def attach_fields(report, nu_norm, ii_norm, a_norm, scalar_r) -> None:
    report["nu"] = summary(nu_norm)
    report["II"]["norm"] = summary(ii_norm)
    report["torsion"]["norm"] = summary(a_norm)
    report["webster"]["R"] = summary(scalar_r)
    report["tables"] = {
        "shape": list(np.shape(nu_norm)),
        "nu": np.asarray(nu_norm, dtype=float).reshape(-1).tolist(),
        "II_norm": np.asarray(ii_norm, dtype=float).reshape(-1).tolist(),
        "torsion_norm": np.asarray(a_norm, dtype=float).reshape(-1).tolist(),
        "R": np.asarray(scalar_r, dtype=float).reshape(-1).tolist(),
    }


def all_pass(report) -> bool:
    ok = True
    for entry in report["residuals"].values():
        if entry is not None and not entry["pass"]:
            ok = False
    for verdict in report["verdicts"].values():
        if verdict is False:
            ok = False
    return ok


def serialize(report, fmt="text") -> str:
    if fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=1, allow_nan=True) + "\n"
    return _text(report)


def _fmt(x):
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _text(report) -> str:
    md = report["metadata"]
    lines = [f"cartanheis {md['version']} — {md['command']}"]
    cfg = md.get("config", {})
    lines.append("  " + "  ".join(f"{k}={v}" for k, v in sorted(cfg.items())
                                  if v is not None))
    if "gauge" in md:
        lines.append(f"  gauge: {md['gauge']}")
    if "decisions" in md:
        dec = md["decisions"]
        lines.append(
            f"  decisions: gauge class {dec['gauge']['class']} "
            f"(min |nu| {_fmt(dec['gauge']['nu_min'])}), "
            f"pivot axis {dec['pivot_axis']}, tangent seed axes "
            f"{' '.join(map(str, dec['tangent_seed_axes']))}, normal candidates "
            f"{' '.join(dec['normal_candidates']) or '-'}")
    if report["class"] is not None:
        lines.append(f"class: {report['class']}")
    rows = [("field", "min", "max", "mean")]
    for label, node in (("|nu|", report["nu"]), ("||II||", report["II"]["norm"]),
                        ("|A|", report["torsion"]["norm"]),
                        ("R", report["webster"]["R"])):
        if node is not None:
            rows.append((label, _fmt(node["min"]), _fmt(node["max"]),
                         _fmt(node["mean"])))
    if len(rows) > 1:
        lines += _table(rows)
    rrows = [("residual", "value", "threshold", "pass")]
    for key in RESIDUAL_KEYS:
        entry = report["residuals"].get(key)
        if entry is not None:
            rrows.append((key, f"{entry['value']:.3e}",
                          f"{entry['threshold']:.1e}", _fmt(entry["pass"])))
    if len(rrows) > 1:
        lines += _table(rrows)
    fits = report["fits"]
    if fits.get("sphere"):
        s = fits["sphere"]
        lines.append(f"sphere fit: center {np.round(s['center'], 9).tolist()} "
                     f"radius {_fmt(s['radius'])} "
                     f"(spread {s['center_residual']:.2e}/{s['radius_residual']:.2e})")
    if fits.get("flat"):
        f = fits["flat"]
        lines.append(f"flat fit: image residual {f['image_residual']:.3e}")
    for d in report["diagnostics"]:
        lines.append(f"note: {d}")
    for k, v in sorted(report["verdicts"].items()):
        lines.append(f"verdict {k}: {_fmt(v)}")
    return "\n".join(lines) + "\n"


def _table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    out = []
    for r in rows:
        out.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return out
