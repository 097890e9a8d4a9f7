"""Outside-in tracer for the cartanheis benchmark.

The tracer wraps public names of the package from the outside: module
functions, public methods and public cached properties.  It never imports a
private helper.  A wrapped call opens a span (name, start, end, parent, op
id) kept in memory; hot leaf calls (jet arithmetic, the matrix exponential)
only bump counters, because a span per call would cost more than the call
and their time belongs to the stage that issued them.  A name that the
package no longer defines is recorded as absent and never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from functools import cached_property
from time import perf_counter

# (layer, module, qualified name) of every name that opens a span
SPANNED = [
    ("dsl", "cartanheis.dsl", "parse_surface_spec"),
    ("dsl", "cartanheis.dsl", "parse"),
    ("dsl", "cartanheis.dsl", "transform_immersion"),
    ("dsl", "cartanheis.dsl", "Immersion.jets"),
    ("dsl", "cartanheis.dsl", "Immersion.values"),
    ("darboux", "cartanheis.darboux", "darboux_frame"),
    ("darboux", "cartanheis.darboux", "darboux_derivative"),
    ("darboux", "cartanheis.darboux", "FrameField.frame_cols"),
    ("darboux", "cartanheis.darboux", "FrameField.matrix"),
    ("darboux", "cartanheis.darboux", "FrameField.nu_norm"),
    ("darboux", "cartanheis.darboux", "FrameField.coframe"),
    ("darboux", "cartanheis.darboux", "FrameField.duals"),
    ("darboux", "cartanheis.darboux", "FrameField.matrix_values"),
    ("darboux", "cartanheis.darboux", "MCForm.values"),
    ("darboux", "cartanheis.darboux", "MCForm.d1"),
    ("darboux", "cartanheis.darboux", "MCForm.structure_residual"),
    ("invariants", "cartanheis.invariants", "Analysis.zco1"),
    ("invariants", "cartanheis.invariants", "Analysis.th1"),
    ("invariants", "cartanheis.invariants", "Analysis.zhat1"),
    ("invariants", "cartanheis.invariants", "Analysis.that1"),
    ("invariants", "cartanheis.invariants", "Analysis.conn_slots"),
    ("invariants", "cartanheis.invariants", "Analysis.second_ff"),
    ("invariants", "cartanheis.invariants", "Analysis.nu_comp_vals"),
    ("invariants", "cartanheis.invariants", "Analysis.nabla_perp_nu"),
    ("invariants", "cartanheis.invariants", "Analysis.normal_conn_coeffs"),
    ("invariants", "cartanheis.invariants", "Analysis.II_norm2"),
    ("invariants", "cartanheis.invariants", "Analysis.tanaka_webster"),
    ("invariants", "cartanheis.invariants", "Analysis.torsion_vals"),
    ("invariants", "cartanheis.invariants", "Analysis.intrinsic_conn_slots"),
    ("invariants", "cartanheis.invariants", "Analysis.torsion_norm2"),
    ("invariants", "cartanheis.invariants", "Analysis.curvature"),
    ("invariants", "cartanheis.invariants", "Analysis.coframe_condition"),
    ("invariants", "cartanheis.invariants", "Analysis.second_ff_residuals"),
    ("invariants", "cartanheis.invariants", "Analysis.restriction_residuals"),
    ("invariants", "cartanheis.invariants", "Analysis.gauss_residual"),
    ("invariants", "cartanheis.invariants", "Analysis.cnv_curvature_residual"),
    ("invariants", "cartanheis.invariants", "Analysis.scalar_torsion_residual"),
    ("invariants", "cartanheis.invariants", "Analysis.h_torsion_link_residual"),
    ("invariants", "cartanheis.invariants", "Analysis.theta_nn_residual"),
    ("reconstruct", "cartanheis.reconstruct", "eta_from_frame_field"),
    ("reconstruct", "cartanheis.reconstruct", "integrability_verdict"),
    ("reconstruct", "cartanheis.reconstruct", "holonomy_residual"),
    ("reconstruct", "cartanheis.reconstruct", "integrate_frame"),
    ("reconstruct", "cartanheis.reconstruct", "intrinsic_data_from_analysis"),
    ("reconstruct", "cartanheis.reconstruct", "assemble_eta"),
    ("reconstruct", "cartanheis.reconstruct", "congruence"),
    ("rigidity", "cartanheis.rigidity", "classify"),
    ("rigidity", "cartanheis.rigidity", "detect_flat"),
    ("rigidity", "cartanheis.rigidity", "detect_sphere"),
    ("cli", "cartanheis.cli", "main"),
    ("report", "cartanheis.report", "new_report"),
    ("report", "cartanheis.report", "attach_fields"),
    ("report", "cartanheis.report", "all_pass"),
    ("report", "cartanheis.report", "serialize"),
]


def _jet_mul(counts, args, out):
    counts["jets.mul_calls"] += 1
    counts["jets.mul_bytes"] += getattr(getattr(out, "c", None), "nbytes", 0)


def _jet_add(counts, args, out):
    counts["jets.add_calls"] += 1


def _expm(counts, args, out):
    shape = getattr(args[0], "shape", ())
    counts["reconstruct.expm_matrices"] += math.prod(shape[:-2])


# (counter hook, module, qualified name) of the counted-only hot names
COUNTED = [
    (_jet_mul, "cartanheis.jets", "Jet.__mul__"),
    (_jet_mul, "cartanheis.jets", "Jet.__rmul__"),
    (_jet_add, "cartanheis.jets", "Jet.__add__"),
    (_jet_add, "cartanheis.jets", "Jet.__radd__"),
    (_expm, "cartanheis.reconstruct", "expm"),
]

# per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "dsl.parse_s": ["dsl.parse_surface_spec", "dsl.parse"],
    "dsl.jets_s": ["dsl.Immersion.jets"],
    "dsl.transform_s": ["dsl.transform_immersion"],
    "darboux.frame_s": ["darboux.darboux_frame", "darboux.FrameField.frame_cols",
                        "darboux.FrameField.matrix", "darboux.FrameField.nu_norm",
                        "darboux.FrameField.coframe", "darboux.FrameField.duals",
                        "darboux.FrameField.matrix_values"],
    "darboux.mc_s": ["darboux.darboux_derivative", "darboux.MCForm.values",
                     "darboux.MCForm.d1"],
    "darboux.structure_residual_s": ["darboux.MCForm.structure_residual"],
    "invariants.second_ff_s": [
        "invariants.Analysis." + a for a in (
            "zco1", "th1", "zhat1", "that1", "conn_slots", "second_ff",
            "nu_comp_vals", "nabla_perp_nu", "normal_conn_coeffs", "II_norm2")],
    "invariants.tanaka_webster_s": [
        "invariants.Analysis." + a for a in (
            "tanaka_webster", "torsion_vals", "intrinsic_conn_slots",
            "torsion_norm2")],
    "invariants.curvature_s": ["invariants.Analysis.curvature"],
    "invariants.residuals_s": [
        "invariants.Analysis." + a for a in (
            "coframe_condition", "second_ff_residuals", "restriction_residuals",
            "gauss_residual", "cnv_curvature_residual",
            "scalar_torsion_residual", "h_torsion_link_residual",
            "theta_nn_residual")],
    "reconstruct.holonomy_s": ["reconstruct.integrability_verdict",
                               "reconstruct.holonomy_residual"],
    "reconstruct.integrate_s": ["reconstruct.integrate_frame"],
    "reconstruct.assemble_s": ["reconstruct.intrinsic_data_from_analysis",
                               "reconstruct.assemble_eta",
                               "reconstruct.eta_from_frame_field"],
    "reconstruct.congruence_s": ["reconstruct.congruence"],
    "rigidity.classify_s": ["rigidity.classify"],
    "rigidity.detect_s": ["rigidity.detect_flat", "rigidity.detect_sphere"],
    "cli.self_s": ["cli.main"],
    "report.serialize_s": ["report.serialize"],
}
LAYERS = ("dsl", "darboux", "invariants", "reconstruct", "rigidity", "report")

# name -> (unit, better); the order is the order of the printed table
PER_LAYER = {name: ("s", "lower") for name in TIME_METRICS}
PER_LAYER.update({
    "jets.mul_calls": ("count", "lower"),
    "jets.add_calls": ("count", "lower"),
    "jets.mul_mb": ("MB", "lower"),
    "darboux.frame_calls": ("count", "lower"),
    "reconstruct.holonomy_fast_ratio": ("ratio", "higher"),
    "reconstruct.expm_matrices": ("count", "lower"),
})
PER_LAYER.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["trace.spans"] = ("count", "lower")

# counts that must repeat exactly between two traced passes of one seed
EXACT = ("jets.mul_calls", "jets.add_calls", "darboux.frame_calls",
         "reconstruct.expm_matrices", "reconstruct.holonomy_fast_ratio")


def _resolve(module, qualname):
    """(owner, attribute, current value) of a dotted name, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = vars(owner).get(attr)
    else:
        value = getattr(owner, attr, None)
    if value is None or not (callable(value) or isinstance(value, cached_property)):
        return None
    return owner, attr, value


class Tracer:
    """Spans and counters of one traced pass; install() patches, remove() restores."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.absent = []
        self.op = None
        self._stack = []
        self._patches = []   # (owner, attribute, original value)

    def reset(self):
        self.spans, self.counts, self._stack = [], Counter(), []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = self._stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapped

    def _counted(self, hook, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(self.counts, args, out)
            return out
        return wrapped

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, module, qualname, make):
        found = _resolve(module, qualname)
        if found is None:
            self.absent.append(f"{module.rsplit('.', 1)[-1]}.{qualname}")
            return
        owner, attr, value = found
        if isinstance(value, cached_property):
            prop = cached_property(make(value.func))
            prop.__set_name__(owner, attr)
            self._patch(owner, attr, prop)
            return
        wrapped = make(value)
        self._patch(owner, attr, wrapped)
        if not isinstance(owner, type):
            # rebind `from .x import name` aliases held by sibling modules
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("cartanheis") and mod is not owner
                        and vars(mod).get(attr) is value):
                    self._patch(mod, attr, wrapped)

    def install(self):
        self.absent = []
        for layer, module, qualname in SPANNED:
            self._wrap(module, qualname,
                       lambda fn, n=f"{layer}.{qualname}": self._span(n, fn))
        for hook, module, qualname in COUNTED:
            self._wrap(module, qualname, lambda fn, h=hook: self._counted(h, fn))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def root(self, name, op, fn, *args, **kwargs):
        """Run fn under a root span that tags every nested span with op."""
        self.op = op
        try:
            return self._span(name, fn)(*args, **kwargs)
        finally:
            self.op = None

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Self time per span name: duration minus the time covered by children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def verdict_paths(self):
        """(fast, total) holonomy verdicts; fast means decided without subdivision."""
        calls = Counter()
        verdicts = [i for i, s in enumerate(self.spans)
                    if s[0] == "reconstruct.integrability_verdict"]
        for name, _, _, parent, _ in self.spans:
            if name == "reconstruct.holonomy_residual" and parent >= 0:
                calls[parent] += 1
        return sum(1 for i in verdicts if calls[i] == 1), len(verdicts)

    def metrics(self):
        """Per-layer metric values of this pass, and the metrics it never reached.

        A metric is absent when the package no longer defines the names it
        reads or the pass never called them (reconstruct on jets5d); its
        value is then reported as 0.
        """
        selfs = self.self_times()
        out, missing = {}, []
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(selfs[n] for n in names)
            if not any(n in selfs for n in names):
                missing.append(metric)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in selfs.items()
                                         if n.startswith(layer + "."))
        c = self.counts
        out["jets.mul_calls"] = c["jets.mul_calls"]
        out["jets.add_calls"] = c["jets.add_calls"]
        out["jets.mul_mb"] = c["jets.mul_bytes"] / 1e6
        out["darboux.frame_calls"] = sum(1 for s in self.spans
                                         if s[0] == "darboux.darboux_frame")
        fast, total = self.verdict_paths()
        out["reconstruct.holonomy_fast_ratio"] = fast / total if total else 0.0
        if "reconstruct.holonomy_residual" in self.absent:
            total = 0
        out["reconstruct.expm_matrices"] = c["reconstruct.expm_matrices"]
        missing += [k for k in ("jets.mul_calls", "jets.add_calls",
                                "darboux.frame_calls", "reconstruct.expm_matrices")
                    if not out[k]]
        if not c["jets.mul_calls"]:
            missing.append("jets.mul_mb")
        if not total:
            missing.append("reconstruct.holonomy_fast_ratio")
        out["trace.spans"] = len(self.spans)
        return out, missing
