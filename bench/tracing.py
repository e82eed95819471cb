"""Span tracer that wraps rdsm's public functions from outside the package.

Nothing under src/ knows about tracing.  While a run is traced, the public
functions and methods of each layer are replaced by wrappers that record a
span (name, start, end, parent, run id, and a few counts) and are put back
when the run ends.  A wrapper records only while a span opened by the
benchmark itself is open, so set-up and correctness checks leave no spans.

Module-level functions are bound by name in every module that imported them
(`from .bend import simulate_dataset` in cli and workflow), so a function is
replaced in every rdsm module whose global still points at the original.
Methods are replaced on their class.
"""

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from rdsm import bend, catalog, dataset, sampling, sensitivity, surrogate, workflow

MEMBERS = ("TS_full", "TS", "PL", "DL", "DC", "DI", "PM")
CLI_LABELS = ("simulate", "fit_direct", "fit_summed", "compare", "sobol", "uq")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        opened = self.open(name, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def _wrap(tracer: Tracer, name: str, fn, describe=None):
    """fn recording a span named name; describe(span, args, result) adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if describe is not None:
            describe(span, args, result)
        return result

    return wrapper


def _wrap_advance_step(tracer: Tracer, fn):
    """advance_step plus the count of points whose plastic strain changed,
    counted outside the span from copies taken before the step."""

    @functools.wraps(fn)
    def advance_step(self):
        if not tracer.active:
            return fn(self)
        ply, metal = self.eps12_p.copy(), self.eps_p_m.copy()
        span = tracer.open("bend.advance_step")
        try:
            fn(self)
        finally:
            tracer.close(span)
        span.attrs["plastic_points"] = int(
            np.count_nonzero(self.eps12_p != ply) + np.count_nonzero(self.eps_p_m != metal)
        )

    return advance_step


class Patches:
    """Installs the layer wrappers; restore() puts every original back."""

    def __init__(self, tracer: Tracer):
        self._undo = []
        t = tracer

        def rows(span, args, result):
            span.attrs["rows"] = int(np.shape(result)[0])

        def train(span, args, result):
            span.attrs["epochs_run"] = int(result.report.epochs_run)
            span.attrs["epochs"] = int(args[0].epochs)

        def mechanism(span, args, result):
            span.attrs["mechanism"] = result.mechanism

        def dataset_rows(span, args, result):
            span.attrs["rows"] = len(result)

        def subspace(span, args, result):
            span.attrs["rows"] = len(result.dataset)
            span.attrs["engaged"] = int(np.count_nonzero(result.engaged_mask))

        def evals(span, args, result):
            span.attrs["evals"] = int(result.evaluations_used)

        def saved(span, args, result):
            span.attrs["bytes"] = os.path.getsize(args[1])

        for module, name, describe in (
            (bend, "simulate_dataset", dataset_rows),
            (surrogate, "train_surrogate", train),
            (surrogate, "serialize_model", None),
            (surrogate, "deserialize_model", None),
            (sensitivity, "screen_fdr_logworth", None),
            (sensitivity, "sobol_indices", evals),
            (sampling, "sample_lhs", None),
            (sampling, "sample_lss", None),
            (sampling, "saltelli_matrices", None),
            (workflow, "fit_direct", None),
            (workflow, "fit_summed", None),
            (workflow, "fit_mechanism", mechanism),
            (workflow, "resample_subspace", subspace),
            (workflow, "compare_approaches", None),
            (workflow, "uq_sweep", None),
        ):
            layer = module.__name__.rsplit(".", 1)[1]
            self._function(module, name, _wrap(t, f"{layer}.{name}", getattr(module, name), describe))
        self._method(bend.BendState, "advance_step", lambda fn: _wrap_advance_step(t, fn))
        self._method(surrogate.SurrogateModel, "predict",
                     lambda fn: _wrap(t, "surrogate.predict", fn, rows))
        self._method(catalog.SamplingDistribution, "transform",
                     lambda fn: _wrap(t, "catalog.transform", fn))
        self._method(dataset.Dataset, "save_csv",
                     lambda fn: _wrap(t, "dataset.save_csv", fn, saved))
        self._method(dataset.Dataset, "load_csv",
                     lambda fn: _wrap(t, "dataset.load_csv", fn))

    def _function(self, module, name, replacement) -> None:
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "rdsm":
                continue
            if vars(mod).get(name) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, replacement)

    def _method(self, cls, name, make) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict:
    """Per-layer metrics, per measured pass, from the spans of a traced run.

    Times and counts are totals over the run divided by the number of
    passes; rates and ratios are taken from the totals.  A layer the
    workload never reaches reports zeros.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in named(name))

    def self_time(span):
        return span.duration - _covered((c.start, c.end) for c in children.get(span.id, ()))

    m = {}
    # bend
    steps = named("bend.advance_step")
    m["bend.rows"] = total("bend.simulate_dataset", "rows")
    m["bend.busy_s"] = busy("bend.simulate_dataset")
    m["bend.rows_per_s"] = _ratio(m["bend.rows"], m["bend.busy_s"])
    m["bend.steps"] = len(steps)
    m["bend.step_ms"] = statistics.median(s.duration for s in steps) * 1e3 if steps else 0.0
    m["bend.plastic_points"] = total("bend.advance_step", "plastic_points")

    # surrogate training, each call labelled with the member it trains
    trains = named("surrogate.train_surrogate")
    member_s = dict.fromkeys(MEMBERS, 0.0)
    member_epochs = dict.fromkeys(MEMBERS, 0)
    for s in trains:
        parent = by_id.get(s.parent)
        label = None
        if parent is not None and parent.name == "workflow.fit_direct":
            siblings = [c for c in children[parent.id] if c.name == s.name]
            label = "TS_full" if siblings.index(s) == 0 else "TS"
        elif parent is not None and parent.name == "workflow.fit_mechanism":
            label = parent.attrs.get("mechanism")
        elif parent is not None and parent.name == "workflow.fit_summed":
            label = "DI"
        if label in member_s:
            member_s[label] += s.duration
            member_epochs[label] += s.attrs["epochs_run"]
    m["surrogate.train_calls"] = len(trains)
    m["surrogate.train_s"] = busy("surrogate.train_surrogate")
    m["surrogate.epochs_run"] = total("surrogate.train_surrogate", "epochs_run")
    m["surrogate.epoch_budget_ratio"] = _ratio(
        m["surrogate.epochs_run"], total("surrogate.train_surrogate", "epochs")
    )
    for label in MEMBERS:
        m[f"surrogate.ms_per_epoch.{label}"] = _ratio(member_s[label] * 1e3, member_epochs[label])

    # surrogate inference and persistence
    m["surrogate.predict_rows"] = total("surrogate.predict", "rows")
    m["surrogate.predict_s"] = busy("surrogate.predict")
    m["surrogate.predict_rows_per_s"] = _ratio(m["surrogate.predict_rows"], m["surrogate.predict_s"])
    m["surrogate.serialize_s"] = busy("surrogate.serialize_model")
    m["surrogate.deserialize_s"] = busy("surrogate.deserialize_model")

    # sensitivity; Sobol' self time leaves out only the predict children
    m["sensitivity.screen_calls"] = len(named("sensitivity.screen_fdr_logworth"))
    m["sensitivity.screen_s"] = busy("sensitivity.screen_fdr_logworth")
    m["sensitivity.sobol_s"] = busy("sensitivity.sobol_indices")
    m["sensitivity.sobol_evals"] = total("sensitivity.sobol_indices", "evals")

    def predict_under(span):
        if span.name == "surrogate.predict":
            return [(span.start, span.end)]
        return [iv for c in children.get(span.id, ()) for iv in predict_under(c)]

    m["sensitivity.sobol_self_s"] = sum(
        s.duration - _covered(predict_under(s)) for s in named("sensitivity.sobol_indices")
    )

    m["sampling.lhs_s"] = busy("sampling.sample_lhs")
    m["sampling.lss_s"] = busy("sampling.sample_lss")
    m["sampling.saltelli_s"] = busy("sampling.saltelli_matrices")
    m["sampling.transform_s"] = busy("catalog.transform")

    m["dataset.save_s"] = busy("dataset.save_csv")
    m["dataset.load_s"] = busy("dataset.load_csv")
    m["dataset.bytes_written"] = total("dataset.save_csv", "bytes")

    m["workflow.fit_direct_s"] = busy("workflow.fit_direct")
    m["workflow.fit_summed_s"] = busy("workflow.fit_summed")
    m["workflow.resample_s"] = busy("workflow.resample_subspace")
    m["workflow.subspace_yield"] = _ratio(
        total("workflow.resample_subspace", "engaged"), total("workflow.resample_subspace", "rows")
    )
    m["workflow.compare_s"] = busy("workflow.compare_approaches")
    m["workflow.uq_s"] = busy("workflow.uq_sweep")

    commands = [s for s in spans if s.name.startswith("cli.")]
    for label in CLI_LABELS:
        m[f"cli.{label}_s"] = busy(f"cli.{label}")
    m["cli.self_s"] = sum(self_time(s) for s in commands)

    m["trace.pass_s"] = busy("pass")
    m["trace.spans"] = len(spans)

    per_pass = max(passes, 1)
    rates = {"bend.rows_per_s", "bend.step_ms", "surrogate.epoch_budget_ratio",
             "surrogate.predict_rows_per_s", "workflow.subspace_yield"}
    rates.update(f"surrogate.ms_per_epoch.{label}" for label in MEMBERS)
    return {k: (v if k in rates else v / per_pass) for k, v in m.items()}
