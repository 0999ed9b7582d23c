"""In-memory span tracer installed by wrapping the package's public functions.

Each wrapper replaces a function at every module attribute that holds it
(``qmc.channel``, ``qmc.channels.channel``, ``qmc.gauge.channel``, ...), so
calls are seen whichever module makes them.  A span records its name,
start, end, parent span and the (pass, task) it belongs to; spans stay in
memory and are written out once, when the run ends.  Counters and
distinct-input sets are recorded at the same wrappers.

Self time of a span is its duration minus the durations of its child
spans (children of one synchronous call never overlap).  Busy time of a
name sums only its outermost spans, so a recursive call is not counted
twice.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "qmc" or name.startswith("qmc.")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass, task]
        self._stack = []
        self._undo = []
        self.context = (-1, -1)
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent) + self.context
            if after is not None:
                after(token, result)
            return result

        return wrapper

    def patch_function(self, module, attr, name, before=None, after=None):
        """Wrap ``module.attr`` at every package attribute bound to it."""
        orig = getattr(module, attr)
        wrapper = self._wrap(name, orig, before, after)
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def patch_method(self, cls, attr, name, before=None, after=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, orig, before, after))
        self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        if tracemalloc.is_tracing():  # a wrapped call raised before its after-hook
            tracemalloc.stop()

    # ------------------------------------------------------------------
    # aggregation

    def aggregate(self):
        """Per span name: calls, busy seconds (outermost spans) and self seconds."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(spans):
            name = s[0]
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                st["busy_s"] += dur[i]
        return stats

    def dump(self, path, header):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header)
        doc["span_fields"] = ["name", "start", "end", "parent", "pass", "task"]
        doc["names"] = names
        doc["spans"] = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer):
    """Wrap the public functions of every layer; README.md lists them."""
    import qmc.channels as channels
    import qmc.cli as cli
    import qmc.ergodic as ergodic
    import qmc.gauge as gauge
    import qmc.gaussian as gaussian
    import qmc.io as qio
    import qmc.statmodel as statmodel
    import qmc.trajectories as trajectories

    counts, distinct = tracer.counts, tracer.distinct

    def on_channel(args, kwargs):
        distinct["channels.channel"].add(args[0].v.tobytes())

    def superop_bytes(token, result):
        counts["channels.superop_bytes"] += result.m.nbytes

    def on_split(args, kwargs):
        a = args[1] if len(args) > 1 else kwargs["a"]
        a = getattr(a, "a", a)
        distinct["gauge.split"].add((args[0].iso.v.tobytes(), np.asarray(a).tobytes()))

    # tracemalloc runs only inside qfi_curve: traced everywhere, it would slow
    # every allocation of the pass
    def qfi_start(args, kwargs):
        tracemalloc.start()

    def qfi_end(token, result):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        counts["statmodel.qfi_curve.peak_alloc_bytes"] = max(
            counts["statmodel.qfi_curve.peak_alloc_bytes"], peak
        )

    sample_batch_sig = inspect.signature(trajectories.sample_batch)

    def on_sample_batch(args, kwargs):
        bound = sample_batch_sig.bind(*args, **kwargs)
        counts["trajectories.steps"] += int(bound.arguments["n_blocks"]) * int(
            bound.arguments["trials"]
        )

    tracer.patch_function(channels, "channel", "channels.channel", on_channel, superop_bytes)
    tracer.patch_function(channels, "sandwich_map", "channels.sandwich_map", None, superop_bytes)
    tracer.patch_function(channels, "dilation", "channels.dilation")
    tracer.patch_method(channels.Superoperator, "__call__", "channels.matvec")
    tracer.patch_method(channels.Superoperator, "spectral_radius", "channels.spectral_radius")

    tracer.patch_function(ergodic, "analyze", "ergodic.analyze")
    tracer.patch_function(ergodic, "access_span_check", "ergodic.access_span_check")
    tracer.patch_function(ergodic, "stationary_eigenbasis", "ergodic.stationary_eigenbasis")

    tracer.patch_function(gauge, "split", "gauge.split", on_split)
    tracer.patch_function(gauge, "restricted_resolvent_solve", "gauge.restricted_resolvent_solve")
    tracer.patch_function(gauge, "equivalence_witness", "gauge.equivalence_witness")

    tracer.patch_function(statmodel, "qfi_curve", "statmodel.qfi_curve", qfi_start, qfi_end)
    tracer.patch_function(statmodel, "weak_qlan_report", "statmodel.weak_qlan_report")
    tracer.patch_method(statmodel.DeformedChannel, "__post_init__", "statmodel.DeformedChannel")
    tracer.patch_function(statmodel, "finite_window_variance", "statmodel.finite_window_variance")
    tracer.patch_function(statmodel, "asymptotic_variance", "statmodel.asymptotic_variance")

    tracer.patch_function(gaussian, "mixture_gram", "gaussian.mixture_gram")
    tracer.patch_function(gaussian, "mode_point", "gaussian.mode_point")

    tracer.patch_function(trajectories, "sample_batch", "trajectories.sample_batch", on_sample_batch)
    tracer.patch_function(trajectories, "block_kraus", "trajectories.block_kraus")

    tracer.patch_function(cli, "main", "cli.main")
    tracer.patch_function(qio, "isometry_from_json", "io.isometry_from_json")
    tracer.patch_function(qio, "write_csv", "io.write_csv")


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json, from spans and counters."""
    st = tracer.aggregate()
    counts, distinct = tracer.counts, tracer.distinct

    def g(name, field):
        return st[name][field] if name in st else (0 if field == "calls" else 0.0)

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    ch_calls = g("channels.channel", "calls")
    put("channels.channel.calls", ch_calls, "count")
    put("channels.channel.busy_s", g("channels.channel", "busy_s"), "s")
    n_chains = len(distinct["channels.channel"])
    put("channels.channel.per_chain", ch_calls / n_chains if n_chains else 0.0, "count")
    put("channels.superop_bytes", int(counts["channels.superop_bytes"]), "B")
    put("channels.matvec.calls", g("channels.matvec", "calls"), "count")
    put("channels.matvec.busy_s", g("channels.matvec", "busy_s"), "s")
    put("channels.spectral_radius.calls", g("channels.spectral_radius", "calls"), "count")
    put("channels.spectral_radius.busy_s", g("channels.spectral_radius", "busy_s"), "s")
    put("channels.sandwich_map.busy_s", g("channels.sandwich_map", "busy_s"), "s")
    put("channels.dilation.calls", g("channels.dilation", "calls"), "count")
    put("channels.dilation.busy_s", g("channels.dilation", "busy_s"), "s")

    put("ergodic.analyze.calls", g("ergodic.analyze", "calls"), "count")
    put("ergodic.analyze.busy_s", g("ergodic.analyze", "busy_s"), "s")
    put("ergodic.analyze.self_s", g("ergodic.analyze", "self_s"), "s")
    put("ergodic.access_span_check.busy_s", g("ergodic.access_span_check", "busy_s"), "s")
    put("ergodic.stationary_eigenbasis.calls", g("ergodic.stationary_eigenbasis", "calls"), "count")

    sp_calls = g("gauge.split", "calls")
    put("gauge.split.calls", sp_calls, "count")
    put("gauge.split.self_s", g("gauge.split", "self_s"), "s")
    ratio = len(distinct["gauge.split"]) / sp_calls if sp_calls else 0.0
    put("gauge.split.distinct_ratio", ratio, "ratio")
    rr = "gauge.restricted_resolvent_solve"
    put(rr + ".calls", g(rr, "calls"), "count")
    put(rr + ".busy_s", g(rr, "busy_s"), "s")
    put("gauge.equivalence_witness.self_s", g("gauge.equivalence_witness", "self_s"), "s")

    put("statmodel.qfi_curve.busy_s", g("statmodel.qfi_curve", "busy_s"), "s")
    peak = counts["statmodel.qfi_curve.peak_alloc_bytes"]
    put("statmodel.qfi_curve.peak_alloc_mb", peak / 2**20, "MB")
    put("statmodel.weak_qlan_report.calls", g("statmodel.weak_qlan_report", "calls"), "count")
    put("statmodel.weak_qlan_report.self_s", g("statmodel.weak_qlan_report", "self_s"), "s")
    put("statmodel.DeformedChannel.calls", g("statmodel.DeformedChannel", "calls"), "count")
    fw = "statmodel.finite_window_variance"
    put(fw + ".busy_s", g(fw, "busy_s"), "s")
    put("statmodel.asymptotic_variance.self_s", g("statmodel.asymptotic_variance", "self_s"), "s")

    put("gaussian.mixture_gram.calls", g("gaussian.mixture_gram", "calls"), "count")
    put("gaussian.mixture_gram.self_s", g("gaussian.mixture_gram", "self_s"), "s")
    put("gaussian.mode_point.calls", g("gaussian.mode_point", "calls"), "count")

    sb_busy = g("trajectories.sample_batch", "busy_s")
    steps = int(counts["trajectories.steps"])
    put("trajectories.sample_batch.busy_s", sb_busy, "s")
    put("trajectories.steps", steps, "count")
    put("trajectories.steps_per_s", steps / sb_busy if sb_busy else 0.0, "1/s")
    put("trajectories.block_kraus.busy_s", g("trajectories.block_kraus", "busy_s"), "s")

    put("cli.main.self_s", g("cli.main", "self_s"), "s")
    put("io.isometry_from_json.busy_s", g("io.isometry_from_json", "busy_s"), "s")
    put("io.write_csv.busy_s", g("io.write_csv", "busy_s"), "s")
    return out
