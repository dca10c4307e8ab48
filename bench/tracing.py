"""Span recorder for the traced run, installed from outside the package.

``instrument`` replaces the names that the CLI and the package look up at
call time (``holeburn.cli.fit_trap_model``, ``holeburn.fitting.minimize``,
``holeburn.integrator.detected_signal``, methods of the decay models, the
csvio and pipeline functions) with wrappers that record a span around each
call, and returns a function that puts the originals back.  Nothing under
``src/`` changes.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the span that was open when it started (-1 for none) and ``job`` the id of
the CLI job it belongs to.  Spans stay in memory until the run writes them
out.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# integrator.computed_bytes counts one float64 k and one float64 amplitude
# read per node-time exponential.  These bytes are computed, not measured.
BYTES_PER_NODE_TIME = 16


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._fit_best = math.inf

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def start_fit(self):
        self._fit_best = math.inf

    def note_objective(self, value):
        self.counts["simplex.objective_calls"] += 1
        if value < self._fit_best:
            self._fit_best = value
            self.counts["simplex.useful_calls"] += 1


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def instrument(rec: Recorder, hb):
    """Wrap the package's layer boundaries; return the undo function.

    ``hb`` is the imported ``holeburn`` package (with ``cli`` loaded).
    """
    undo = []

    def wrap(owner, attr, name, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                out = original(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out

        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))

    counts = rec.counts

    def refined(result, _):
        counts["integrator.refinements"] += result.refinements
        counts["integrator.final_nodes"] = max(counts["integrator.final_nodes"],
                                               result.domain.n_points)

    def signal_done(result, _):
        counts["integrator.node_time_evals"] += result.domain.n_points * result.times.size

    def cloud_done(model, _):
        counts["integrator.cloud.nodes"] += model.domain.n_points

    def compressed(model, _):
        counts["integrator.compress.terms"] += model.bin_amp.size

    def read_done(_, args):
        counts["csvio.bytes_read"] += _size(args[0])

    def write_done(_, args):
        counts["csvio.bytes_written"] += _size(args[0])

    def normalized(scan, _):
        counts["pipeline.points"] += scan.freq.size
        counts["pipeline.excluded_points"] += int(scan.excluded.sum())

    wrap(hb.cli, "refine_until_converged", "integrator.refine", refined)
    wrap(hb.integrator, "detected_signal", "integrator.signal", signal_done)
    wrap(hb.fitting, "TrapDecayModel", "integrator.cloud", cloud_done)
    wrap(hb.integrator.TrapDecayModel, "compressed", "integrator.compress",
         compressed)
    wrap(hb.integrator.CompressedDecayModel, "signal",
         "integrator.compressed_eval")
    for attr in ("read_decay_curve", "read_raw_scan", "read_xy"):
        wrap(hb.csvio, attr, "csvio." + attr, read_done)
    for attr in ("write_report", "write_treated_scan"):
        wrap(hb.csvio, attr, "csvio." + attr, write_done)
    # The simulate command's CSV writer lives in integrator.py; it is the
    # same file-format layer, so it is counted with csvio.
    wrap(hb.cli, "write_signal_csv", "csvio.write_signal_csv", write_done)
    wrap(hb.pipeline, "detect_aom_off_range", "pipeline.detect_aom_off_range")
    wrap(hb.pipeline, "subtract_background", "pipeline.subtract_background")
    wrap(hb.pipeline, "normalize_by_power", "pipeline.normalize_by_power",
         normalized)

    for attr, kind in (("fit_trap_model", "trap"),
                       ("fit_hole_lorentzian", "hole"),
                       ("fit_exponential", "expdecay"),
                       ("fit_linear_ci", "linear")):
        _wrap_fit(rec, hb.cli, attr, kind, undo)
    _wrap_minimize(rec, hb.fitting, undo)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _wrap_fit(rec, owner, attr, kind, undo):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec.start_fit()
        rec.counts["fitting.attempts"] += 1
        # A fit that raises (the hole fit raises FitError when the simplex
        # does not converge) counts as not converged.  The linear fit is
        # closed form and reports no convergence flag.
        with rec.span("fitting." + kind):
            out = original(*args, **kwargs)
        if getattr(out, "converged", True):
            rec.counts["fitting.converged"] += 1
        return out

    setattr(owner, attr, wrapper)
    undo.append((owner, attr, original))


def _wrap_minimize(rec, owner, undo):
    original = owner.minimize

    @functools.wraps(original)
    def wrapper(objective, x0, options=None):
        def timed(x):
            with rec.span("simplex.objective"):
                value = objective(x)
            rec.note_objective(value)
            return value

        with rec.span("simplex.minimize"):
            result = original(timed, x0, options)
        rec.counts["simplex.iterations"] += result.iterations
        rec.counts["simplex.nfev"] += result.nfev
        return result

    owner.minimize = wrapper
    undo.append((owner, "minimize", original))


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer figures of one traced round."""
    calls, busy, own = Counter(), Counter(), Counter()
    for span, self_s in zip(rec.spans, self_times(rec.spans)):
        name = span[0]
        calls[name] += 1
        busy[name] += span[2] - span[1]
        own[name] += self_s
    c = rec.counts

    def total(counter, prefix):
        return sum(v for k, v in counter.items() if k.startswith(prefix))

    fits = c["fitting.attempts"]

    evals = c["integrator.node_time_evals"]
    signal_s = busy["integrator.signal"]
    return {
        "cli.self_s": own["cli"],
        "csvio.calls": total(calls, "csvio."),
        "csvio.busy_s": total(busy, "csvio."),
        "csvio.bytes_read": c["csvio.bytes_read"],
        "csvio.bytes_written": c["csvio.bytes_written"],
        "pipeline.busy_s": total(busy, "pipeline."),
        "pipeline.points": c["pipeline.points"],
        "pipeline.excluded_points": c["pipeline.excluded_points"],
        "integrator.signal.calls": calls["integrator.signal"],
        "integrator.signal.busy_s": signal_s,
        "integrator.refinements": c["integrator.refinements"],
        "integrator.final_nodes": c["integrator.final_nodes"],
        "integrator.node_time_evals": evals,
        "integrator.ns_per_node_time": 1e9 * signal_s / evals if evals else 0.0,
        "integrator.computed_bytes": BYTES_PER_NODE_TIME * evals,
        "integrator.cloud.busy_s": busy["integrator.cloud"],
        "integrator.cloud.nodes": c["integrator.cloud.nodes"],
        "integrator.compress.busy_s": busy["integrator.compress"],
        "integrator.compress.terms": c["integrator.compress.terms"],
        "integrator.compressed_eval.calls": calls["integrator.compressed_eval"],
        "integrator.compressed_eval.busy_s": busy["integrator.compressed_eval"],
        "simplex.calls": calls["simplex.minimize"],
        "simplex.iterations": c["simplex.iterations"],
        "simplex.nfev": c["simplex.nfev"],
        "simplex.busy_s": busy["simplex.minimize"],
        "simplex.objective_s": busy["simplex.objective"],
        "simplex.self_s": own["simplex.minimize"],
        "simplex.useful_call_frac": (c["simplex.useful_calls"] / c["simplex.objective_calls"]
                                     if c["simplex.objective_calls"] else 0.0),
        "fitting.trap.busy_s": busy["fitting.trap"],
        "fitting.hole.busy_s": busy["fitting.hole"],
        "fitting.expdecay.busy_s": busy["fitting.expdecay"],
        "fitting.linear.busy_s": busy["fitting.linear"],
        "fitting.converged_frac": c["fitting.converged"] / fits if fits else 0.0,
    }
