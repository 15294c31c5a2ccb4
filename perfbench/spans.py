"""Spans around the calls into pswa's public functions, for the traced run.

`Tracer.install` replaces each timed function with a wrapper that records
one span per call: name, start, end, parent span, step id and phase.
Every binding of the function inside the package is replaced, including
the copies that ``from ... import`` made in other modules (``pswa.block``
holds its own ``window_attention``, ``pswa.model`` its own
``pswa_forward``), so no call slips past the wrapper.

Each differentiable op is wrapped too.  When an op returns a graph node,
the node's vjp closure is wrapped and tagged with the scope (the names of
the spans open when the node was created), so backward time lands on the
module whose forward built the node.  FLOPs the package meters through
``pswa.numerics.flops.record`` are booked to the same scopes.

Spans stay in memory until `Tracer.dump`.  Self time is a span's duration
minus the durations of its direct children; the run is single-threaded,
so children never overlap and self time is never negative.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

_now = time.perf_counter_ns

# op function name -> group reported as numerics.op.<group>.*
OP_GROUPS = {
    "matmul": "matmul",
    "gelu": "gelu",
    "layernorm": "layernorm",
    "softmax_rows": "softmax_rows",
    "depthwise_conv2d": "depthwise_conv2d",
    "pointwise_conv2d": "pointwise_conv2d",
    "reshape": "plumbing",
    "transpose": "plumbing",
    "narrow": "plumbing",
    "concat": "plumbing",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "neg": "elementwise",
    "scale": "elementwise",
    "silu": "elementwise",
}
OPS = tuple(OP_GROUPS) + ("sum_", "mean", "gather_rows", "gather_last")

# (module, attribute, span name); the attribute may be "Class.method".
FUNCTIONS = (
    ("pswa.attention", "window_attention", "attention.window_attention"),
    ("pswa.attention", "window_partition", "attention.window_partition"),
    ("pswa.attention", "window_merge", "attention.window_merge"),
    ("pswa.block", "pswa_forward", "block.pswa_forward"),
    ("pswa.block", "bridge_branch", "block.bridge_branch"),
    ("pswa.model", "ToyDiT.forward", "model.forward"),
    ("pswa.model", "ToyDiT.condition", "model.condition"),
    ("pswa.model", "block_forward", "model.block_forward"),
    ("pswa.model", "patchify", "model.patchify"),
    ("pswa.model", "unpatchify", "model.unpatchify"),
    ("pswa.model", "save_checkpoint", "model.save_checkpoint"),
    ("pswa.model", "load_checkpoint", "model.load_checkpoint"),
    ("pswa.numerics.serialize", "dump_tensor", "serialize.dump_tensor"),
    ("pswa.numerics.serialize", "load_tensor", "serialize.load_tensor"),
    ("pswa.numerics.tensor", "Tensor.backward", "tape.backward"),
    ("pswa.diffusion", "ToyDataset.__init__", "diffusion.dataset_build"),
    ("pswa.diffusion", "ToyDataset.batch", "diffusion.data_batch"),
    ("pswa.diffusion", "training_loss", "diffusion.training_loss"),
    ("pswa.diffusion", "AdamW.step", "diffusion.adamw_step"),
    ("pswa.diffusion", "ddpm_sample", "diffusion.ddpm_sample"),
    ("pswa.diagnostics", "distance_survey", "diagnostics.distance_survey"),
    ("pswa.diagnostics", "attention_distance", "diagnostics.attention_distance"),
    ("pswa.diagnostics", "feature_spectrum", "diagnostics.feature_spectrum"),
)
WRAPPED = tuple(name for _, _, name in FUNCTIONS) + tuple(f"op.{op}" for op in OPS)


# Extra value kept on a span: the PSWT bytes a dump or load moved.
_INFO = {
    "serialize.dump_tensor": lambda args: os.path.getsize(args[1]),
    "serialize.load_tensor": lambda args: os.path.getsize(args[0]),
}


class Tracer:
    """Records spans while installed; `Summary` reads them afterwards."""

    def __init__(self, step_marker=None):
        self.step_marker = step_marker  # a span name that starts a new step
        # span: (name, start_ns, end_ns, parent index or -1, step, phase, info)
        self.spans: list = []
        self.flops: dict = {}  # (phase, scope) -> metered FLOPs
        self.open = -1
        self.scope: tuple = ()
        self.step = -1
        self.phase = ""
        self._main_step = -1
        self._patched: list = []

    def set_phase(self, name: str) -> None:
        """Spans outside the "main" phase get step -1; main resumes its count."""
        if self.phase == "main":
            self._main_step = self.step
        self.phase = name
        self.step = self._main_step if name == "main" else -1

    # -- recording ------------------------------------------------------------

    def _enter(self) -> tuple:
        idx = len(self.spans)
        self.spans.append(None)
        parent, self.open = self.open, idx
        return idx, parent

    def _function(self, fn, name):
        tracer = self
        info = _INFO.get(name)
        marks_step = name == self.step_marker

        def wrapper(*args, **kwargs):
            if marks_step:
                tracer.step += 1
            idx, parent = tracer._enter()
            scope = tracer.scope
            tracer.scope = scope + (name,)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                tracer.scope, tracer.open = scope, parent
                extra = info(args) if info is not None else None
                tracer.spans[idx] = (name, start, end, parent, tracer.step, tracer.phase, extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            idx, parent = tracer._enter()
            start = _now()
            created = 0
            try:
                out = fn(*args, **kwargs)
                node = out.node
                if node is not None and not hasattr(node.backward, "scope"):
                    node.backward = tracer._vjp(node.backward, node.op, tracer.scope)
                    created = 1
                return out
            finally:
                end = _now()
                tracer.open = parent
                tracer.spans[idx] = (name, start, end, parent, tracer.step, tracer.phase, created)

        wrapper.__wrapped__ = fn
        return wrapper

    def _vjp(self, fn, op, scope):
        tracer = self
        name = f"vjp.{op}"

        def vjp(g):
            idx, parent = tracer._enter()
            start = _now()
            try:
                return fn(g)
            finally:
                end = _now()
                tracer.open = parent
                tracer.spans[idx] = (name, start, end, parent, tracer.step, tracer.phase, scope)

        vjp.scope = scope
        return vjp

    def _record(self, fn):
        tracer = self

        def record(op, flops):
            fn(op, flops)
            key = (tracer.phase, tracer.scope)
            tracer.flops[key] = tracer.flops.get(key, 0) + int(flops)

        record.__wrapped__ = fn
        return record

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call the benchmark makes itself."""
        idx, parent = self._enter()
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self.open = parent
            self.spans[idx] = (name, start, end, parent, self.step, self.phase, None)

    # -- installation -----------------------------------------------------------

    def _rebind(self, holders, original, wrapper) -> None:
        """Point every name in ``holders`` that holds ``original`` at ``wrapper``."""
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._patched.append((holder, attr, original))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "pswa" or n.startswith("pswa.")]
        for modname, attr, name in FUNCTIONS:
            owner = sys.modules[modname]
            if "." in attr:  # a method: the class is shared by every module that imported it
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[meth]
                self._rebind([owner], original, self._function(original, name))
            else:
                original = getattr(owner, attr)
                self._rebind(modules, original, self._function(original, name))
        ops = sys.modules["pswa.numerics.ops"]
        for op in OPS:
            original = getattr(ops, op)
            self._rebind(modules, original, self._op(original, f"op.{op}"))
        record = sys.modules["pswa.numerics.flops"].record
        self._rebind(modules, record, self._record(record))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, step, phase] row each."""
        rows = [list(s[:6]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "step", "phase"], "spans": rows}, fh)


class Summary:
    """Totals over recorded spans, per phase, in milliseconds."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.flops = tracer.flops
        self.child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                self.child_ns[parent] += end - start

    def _select(self, names, phase):
        names = {names} if isinstance(names, str) else set(names)
        for i, s in enumerate(self.spans):
            if s[0] in names and (phase is None or s[5] == phase):
                yield i, s

    def count(self, names, phase=None) -> int:
        return sum(1 for _ in self._select(names, phase))

    def ms(self, names, phase=None) -> float:
        return sum(s[2] - s[1] for _, s in self._select(names, phase)) / 1e6

    def self_ms(self, names, phase=None) -> float:
        return sum(s[2] - s[1] - self.child_ns[i] for i, s in self._select(names, phase)) / 1e6

    def info(self, names, phase=None) -> int:
        return sum(s[6] for _, s in self._select(names, phase))

    def children(self, name, parent_name) -> int:
        return sum(1 for _, s in self._select(name, None) if s[3] >= 0 and self.spans[s[3]][0] == parent_name)

    def vjp_ms(self, phase, within=(), outside=(), ops=None) -> float:
        """Backward time of nodes created inside all of ``within`` and none of ``outside``."""
        total = 0
        for name, start, end, _, _, ph, scope in self.spans:
            if ph != phase or not name.startswith("vjp."):
                continue
            if ops is not None and name[4:] not in ops:
                continue
            if all(w in scope for w in within) and not any(o in scope for o in outside):
                total += end - start
        return total / 1e6

    def vjp_count(self, phase) -> int:
        return sum(1 for s in self.spans if s[5] == phase and s[0].startswith("vjp."))

    def metered(self, phase, within=None) -> int:
        return sum(f for (ph, scope), f in self.flops.items() if ph == phase and (within is None or within in scope))

    def min_self_ns(self) -> int:
        return min((s[2] - s[1] - self.child_ns[i] for i, s in enumerate(self.spans)), default=0)
