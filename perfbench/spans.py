"""Span tracing from outside the program.

``Tracer.install`` replaces module attributes and class methods of
``debiaskit`` with wrappers that record one span per call: an id, the id of
the enclosing span, a name, start, end and an optional piece of call
information (a step count, a scheme/method pair, ...). Every binding of a
wrapped function is replaced, so ``from .classifier import train`` in another
module is traced too.

Forked pool workers inherit the wrappers. A worker writes its spans to
``<spool>/spans-<pid>.jsonl`` each time its outermost span closes, and
``Tracer.collect`` merges those files with the spans kept in memory. Spans
are keyed by (pid, id), so self times never mix processes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("autodiff", "causal", "classifier", "cli", "data", "debias",
           "metrics", "optim", "runner", "vcae")


def _steps(ds, cfg):
    return cfg.epochs * math.ceil(len(ds) / cfg.batch_size)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _digest(args, kwargs):
    """Identity of an amplification input: data, labels and every setting."""
    ds = _arg(args, kwargs, 0, "train_ds")
    h = hashlib.sha1(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    h.update(repr((_arg(args, kwargs, 1, "gce"), _arg(args, kwargs, 2, "t_bias"),
                   _arg(args, kwargs, 3, "cfg"))).encode())
    return h.hexdigest()


# span name -> (module, attribute path, call-information function or None).
# A target that a later version of the package no longer has is skipped;
# the metrics built on it then read 0.
TARGETS = {
    "classifier.train": ("classifier", "train",
                         lambda a, k: _steps(_arg(a, k, 0, "ds"), _arg(a, k, 1, "cfg"))),
    "debias.lff": ("debias", "_run_lff",
                   lambda a, k: _steps(_arg(a, k, 0, "train_ds"), _arg(a, k, 3, "cfg"))),
    "classifier.mlp_forward": ("classifier", "mlp_forward", None),
    "classifier.save_model": ("classifier", "save_model", None),
    "autodiff.backward": ("autodiff", "Tape.backward", lambda a, k: len(a[0])),
    "optim.adam_step": ("optim", "Adam.step", None),
    "optim.sgd_step": ("optim", "Sgd.step", None),
    "vcae.train": ("vcae", "train_vcae",
                   lambda a, k: _steps(_arg(a, k, 0, "ds"), _arg(a, k, 2, "t_cfg"))),
    "vcae.weights": ("vcae", "vcae_weights", None),
    "debias.pipeline": ("debias", "run_debias_pipeline",
                        lambda a, k: (f"{_arg(a, k, 2, 'scheme')}-"
                                      f"{_arg(a, k, 3, 'method')}")),
    "debias.amplify": ("debias", "train_biased_classifier", _digest),
    "metrics.eval": ("metrics", "evaluate_accuracy", None),
    "data.generate": ("data", "generate", None),
    "data.save": ("data", "save_dataset", None),
    "data.load": ("data", "load_dataset", None),
    "runner.run_experiment": ("runner", "run_experiment", None),
    "runner.run_single": ("runner", "run_single", None),
    "runner.sweep": ("runner", "run_sweep", None),
    "causal.oracle_report": ("causal", "oracle_report", None),
}


def self_times(spans):
    """Self time of each span: its duration minus the time its direct
    children cover. ``spans`` are (pid, id, parent, name, start, end, info)
    tuples; the result maps (pid, id) to seconds."""
    out = {}
    for pid, sid, _, _, start, end, _ in spans:
        out[(pid, sid)] = end - start
    for pid, _, parent, _, start, end, _ in spans:
        if parent is not None:
            out[(pid, parent)] -= end - start
    return out


class Tracer:
    def __init__(self, spool: str | Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.origin = self.pid
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.missing: list[str] = []

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    def _flush(self):
        with (self.spool / f"spans-{self.pid}.jsonl").open("a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = info(args, kwargs) if info is not None else None
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((self.pid, sid, parent, name, start, end, detail))
                if not self.stack and self.pid != self.origin:
                    self._flush()
        return traced

    def install(self):
        """Wrap every target that exists; remember the ones that do not."""
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"debiaskit.{m}")
            except ModuleNotFoundError:
                pass
        for name, (mod, path, info) in TARGETS.items():
            owner = mods.get(mod)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None) if owner is not None else None
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, info)
            if cls_path:
                setattr(owner, attr, wrapper)
            else:
                for m in mods.values():
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
        os.register_at_fork(after_in_child=self._after_fork)

    def collect(self) -> list[tuple]:
        """Spans of this process plus every flushed worker file."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                spans.append(tuple(json.loads(line)))
        return spans


def layer_metrics(spans) -> dict:
    """Per-layer totals from spans (see README.md for each name)."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for pid, sid, _, name, start, end, detail in spans:
        total[name] += end - start
        own[name] += selfs[(pid, sid)]
        calls[name] += 1
        if detail is not None:
            infos[name].append(detail)

    def ratio(a, b):
        return a / b if b else 0.0

    loops = ("classifier.train", "debias.lff")
    train_s = sum(total[n] for n in loops)
    steps = sum(sum(infos[n]) for n in loops)
    vcae_steps = sum(infos["vcae.train"])
    amp = infos["debias.amplify"]
    out = {
        "classifier.train_s": train_s,
        "classifier.train_self_s": sum(own[n] for n in loops),
        "classifier.train_steps": steps,
        "classifier.step_us": 1e6 * ratio(train_s, steps),
        "classifier.mlp_forward_s": total["classifier.mlp_forward"],
        "classifier.mlp_forward_calls": calls["classifier.mlp_forward"],
        "classifier.save_model_s": total["classifier.save_model"],
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.nodes_per_backward": ratio(sum(infos["autodiff.backward"]),
                                             calls["autodiff.backward"]),
        "optim.step_s": total["optim.adam_step"] + total["optim.sgd_step"],
        "optim.step_calls": calls["optim.adam_step"] + calls["optim.sgd_step"],
        "vcae.train_s": total["vcae.train"],
        "vcae.step_us": 1e6 * ratio(total["vcae.train"], vcae_steps),
        "vcae.weights_s": total["vcae.weights"],
        "debias.pipeline_self_s": own["debias.pipeline"],
        "debias.amplify_s": total["debias.amplify"],
        "debias.amplify_calls": len(amp),
        "debias.amplify_unique_frac": ratio(len(set(amp)), len(amp)),
        "metrics.eval_s": total["metrics.eval"],
        "metrics.eval_calls": calls["metrics.eval"],
        "data.generate_s": total["data.generate"],
        "data.generate_calls": calls["data.generate"],
        "data.save_s": total["data.save"],
        "data.load_s": total["data.load"],
        "data.load_calls": calls["data.load"],
        "runner.io_s": total["runner.run_experiment"] - total["runner.run_single"],
        "runner.sweep_s": total["runner.sweep"],
        "causal.oracle_report_s": total["causal.oracle_report"],
    }
    per_pair = defaultdict(float)
    for pid, sid, _, name, start, end, detail in spans:
        if name == "debias.pipeline":
            per_pair[detail] += end - start
    for pair, seconds in per_pair.items():
        out[f"debias.pipeline_s.{pair}"] = seconds
    return out
