"""Span tracing of the program's layers, from outside the program.

The tracer wraps public functions of `styleinpaint` and rebinds each wrapper
in every `styleinpaint` module that holds the function by name (for example
`psrl/train.py` imports `crop_patches`, `evaluation.py` imports
`sample_inpaint`), so calls through any binding are seen. Methods are
wrapped on their class. conv2d and attention also wrap the `_backward`
closures of the tape nodes each call creates, so their backward time is a
span of its own inside `Tensor.backward`.

Spans are kept in memory as [name, start, end, parent, phase] and written
out when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

# (layer name, defining module, attribute); "Class.method" wraps a method.
LAYERS = (
    ("nn.conv2d", "styleinpaint.nn.functional", "conv2d"),
    ("nn.attention", "styleinpaint.nn.functional", "scaled_dot_attention"),
    ("nn.backward", "styleinpaint.nn.tensor", "Tensor.backward"),
    ("nn.adam_step", "styleinpaint.nn.optim", "adam_step"),
    ("dataset.crop_patches", "styleinpaint.dataset.scenes", "crop_patches"),
    ("dataset.generate", "styleinpaint.dataset", "generate_dataset"),
    ("dataset.io", "styleinpaint.dataset.io", "dataset_write"),
    ("dataset.io", "styleinpaint.dataset.io", "dataset_read"),
    ("psrl.loss_fwd", "styleinpaint.psrl.losses", "psrl_batch_loss"),
    ("psrl.embed_style", "styleinpaint.psrl.model", "embed_style"),
    ("diffusion.training_loss_fwd", "styleinpaint.diffusion.train", "training_loss"),
    ("diffusion.predict_noise", "styleinpaint.diffusion.model", "Denoiser.predict_noise"),
    ("diffusion.sample_inpaint", "styleinpaint.diffusion.sampler", "sample_inpaint"),
    ("reference.connected_features", "styleinpaint.reference",
     "ReferenceNet.connected_features"),
    ("evaluation.run_benchmark", "styleinpaint.evaluation", "run_benchmark"),
    ("checkpoint.save", "styleinpaint.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "styleinpaint.checkpoint", "load_checkpoint"),
)

# modules whose by-name bindings are rewrapped: the program's, and the
# benchmark's own module that calls into it
BINDERS = ("styleinpaint", "workloads")

# layers whose tape nodes get their backward closures timed
_KERNELS = {"nn.conv2d", "nn.attention"}


def _tape_nodes(out, inputs) -> list:
    """Nodes a kernel call created: everything between its output and its
    tensor inputs on the tape (e.g. conv2d's pad node and its GEMM node)."""
    stop = {id(t) for t in inputs}
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in stop or id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class Tracer:
    """Collects spans, per-layer counters and the first call of each kernel
    shape. `installed()` wraps the layers for the duration of a block."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.counters: dict[tuple[str, str], float] = {}
        self.kernel_calls: dict[tuple, dict] = {}
        self._stack: list[int] = []

    # -------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        key = (name, self.phase)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # ------------------------------------------------------------ wrappers
    def _wrap(self, name: str, fn):
        tracer = self

        if name in _KERNELS:
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def kernel(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer._after_kernel(name, sig.bind(*args, **kwargs), out)
                return out
            return kernel

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if name == "checkpoint.save" or name == "checkpoint.load":
                    path = args[0] if args else kwargs["path"]
                    if os.path.exists(path):
                        tracer.count("checkpoint.bytes", os.path.getsize(path))
        return wrapper

    def _after_kernel(self, name: str, bound, out) -> None:
        bound.apply_defaults()
        a = bound.arguments
        w, col_bytes = None, 0
        if name == "nn.conv2d":
            x, w, b = a["x"], a["w"], a["b"]
            captured = [x, w, b]
            bsz, cin = x.shape[0], x.shape[1]
            cout, _, kh, kw = w.shape
            ho, wo = out.shape[2], out.shape[3]
            col_bytes = bsz * ho * wo * cin * kh * kw * out.data.itemsize
            self.count("nn.conv2d.flop", 2.0 * bsz * ho * wo * cout * cin * kh * kw)
            self.count("nn.conv2d.col_bytes", col_bytes)
            params = {"stride": a["stride"], "padding": a["padding"],
                      "pad_mode": a["pad_mode"]}
        else:
            captured = [a["q"], a["k"], a["v"]]
            params = {}
        key = (name, tuple(params.items()),
               tuple(None if t is None else t.shape for t in captured),
               captured[0].data.dtype.str)
        if key not in self.kernel_calls:
            self.kernel_calls[key] = {
                "op": name, "params": params, "out": out.data.copy(),
                "inputs": [None if t is None else t.data.copy() for t in captured]}
        if out._backward is None:
            return
        inputs = [t for t in captured if t is not None]
        for node in _tape_nodes(out, inputs):
            # only conv2d's GEMM node (its output) rebuilds the columns for dW
            rebuild = col_bytes if node is out else 0
            node._backward = self._timed_backward(name + ".bwd", node._backward,
                                                  w, rebuild)

    def _timed_backward(self, name: str, inner, w, col_bytes: int):
        tracer = self

        def backward(g):
            idx = tracer._open(name)
            try:
                inner(g)
            finally:
                tracer._close(idx)
            if col_bytes and w.requires_grad:
                tracer.count("nn.conv2d.col_bytes", col_bytes)
        return backward

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer in LAYERS; restore the originals on exit."""
        undo = []
        try:
            for name, module_name, attr in LAYERS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod_name.split(".")[0] not in BINDERS:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    # ------------------------------------------------------------ results
    def summary(self, phase: str) -> dict[str, list]:
        """[count, summed duration, summed self time] per span name, over
        the spans of one phase."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase:
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child[i]
        return out

    def nested(self, outer: str, inner: str, phase: str) -> tuple[int, float]:
        """Count and summed duration of `inner` spans with an `outer` ancestor."""
        count, total = 0, 0.0
        for name, start, end, parent, ph in self.spans:
            if name != inner or ph != phase:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != outer:
                p = self.spans[p][3]
            if p >= 0:
                count += 1
                total += end - start
        return count, total

    def write(self, path) -> None:
        """Spans as CSV rows: name,start_s,end_s,parent,phase."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("name,start_s,end_s,parent,phase\n")
            for name, start, end, parent, phase in self.spans:
                f.write(f"{name},{start - t0:.6f},{end - t0:.6f},{parent},{phase}\n")


def layer_metrics(tracer: Tracer, traced: list, plain: list,
                  setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, each in the unit of the end-to-end
    metric it should move: measured-phase self times and counts per unit of
    work (a step, or an inpainted image), set-up layers per set-up."""
    units = sum(r.units for r in traced)
    measured = tracer.summary("measure")
    setup = {name: row[2] for name, row in tracer.summary("setup").items()}

    def per_unit(value: float) -> float:
        return value / units

    def calls(span: str) -> float:
        return per_unit(measured.get(span, [0, 0.0, 0.0])[0])

    def counter(name: str) -> float:
        return tracer.counters.get((name, "measure"), 0.0)

    bench_total = measured.get("evaluation.run_benchmark", [0, 0.0, 0.0])[1]
    sampling = tracer.nested("evaluation.run_benchmark", "diffusion.sample_inpaint",
                             "measure")[1]
    tasks = sum(r.tasks for r in traced)
    overhead = (sum(r.timed_s for r in traced) / units
                - sum(r.timed_s for r in plain) / sum(r.units for r in plain))
    times = {
        "nn.conv2d.fwd_s": "nn.conv2d", "nn.conv2d.bwd_s": "nn.conv2d.bwd",
        "nn.attention.fwd_s": "nn.attention", "nn.attention.bwd_s": "nn.attention.bwd",
        "nn.backward_s": "nn.backward", "nn.adam_step_s": "nn.adam_step",
        "dataset.crop_patches_s": "dataset.crop_patches",
        "psrl.loss_fwd_s": "psrl.loss_fwd", "psrl.embed_style_s": "psrl.embed_style",
        "diffusion.training_loss_fwd_s": "diffusion.training_loss_fwd",
        "diffusion.predict_noise_s": "diffusion.predict_noise",
        "reference.connected_features_s": "reference.connected_features",
        "checkpoint.save_s": "checkpoint.save", "checkpoint.load_s": "checkpoint.load",
    }
    out = {metric: (per_unit(measured.get(span, [0, 0.0, 0.0])[2]), "s/unit")
           for metric, span in times.items()}
    out.update({
        "nn.conv2d.calls": (calls("nn.conv2d"), "calls/unit"),
        "nn.conv2d.gflop": (per_unit(counter("nn.conv2d.flop")) / 1e9, "GFLOP/unit"),
        "nn.conv2d.col_mib": (per_unit(counter("nn.conv2d.col_bytes")) / 2 ** 20, "MiB/unit"),
        "nn.attention.calls": (calls("nn.attention"), "calls/unit"),
        "dataset.crop_patches.calls": (calls("dataset.crop_patches"), "calls/unit"),
        "dataset.generate_s": (setup.get("dataset.generate", 0.0) / setups, "s/setup"),
        "dataset.io_s": (setup.get("dataset.io", 0.0) / setups, "s/setup"),
        "diffusion.sampler_steps": (per_unit(tracer.nested(
            "diffusion.sample_inpaint", "diffusion.predict_noise", "measure")[0]), "steps/unit"),
        "evaluation.score_s": (per_unit(bench_total - sampling), "s/unit"),
        "evaluation.tasks_scored": (sum(r.scored for r in traced) / tasks if tasks else 0.0,
                                    "share"),
        "checkpoint.mib": (per_unit(counter("checkpoint.bytes")) / 2 ** 20, "MiB/unit"),
        "checkpoint.setup_s": ((setup.get("checkpoint.save", 0.0)
                                + setup.get("checkpoint.load", 0.0)) / setups, "s/setup"),
        "trace.overhead_s": (overhead, "s/unit"),
    })
    return out
