"""Span tracing of fedsim's public functions, installed at run time.

The tracer replaces module attributes with timing wrappers: every module of
the package that holds a traced function under some name gets the wrapper
under that name, so calls made from inside the package are seen too. Each
wrapped call records one span (name, start, end, parent span); spans stay in
memory until the run writes them out. Nothing in the package is edited, and
uninstall() puts every original back.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" patches a class attribute
TARGETS = [
    ("tensor", "gradients", "tensor.gradients"),
    ("tensor", "sgd_step", "tensor.sgd_step"),
    ("tensor", "clip_grad_norm", "tensor.clip_grad_norm"),
    ("tensor", "params_to_vector", "tensor.params_to_vector"),
    ("tensor", "load_vector", "tensor.load_vector"),
    ("tensor", "conv2d", "tensor.conv2d"),
    ("models", "BlockNet.__init__", "models.build"),
    ("models", "BlockNet.forward", "models.forward"),
    ("models", "BlockNet.forward_with_features", "models.forward"),
    ("models", "BlockNet.forward_subnetwork", "models.forward"),
    ("models", "BlockNet.forward_final_subblock", "models.forward"),
    ("models", "BlockNet.stochdepth_forward", "models.forward"),
    ("models", "BlockNet.project", "models.forward"),
    ("data", "make_synthetic_mixture", "data.synthesize"),
    ("data", "dirichlet_partition", "data.dirichlet_partition"),
    ("data", "mixup_batch", "data.augment"),
    ("data", "downsample_transform", "data.augment"),
    ("methods", "client_update", "methods.client_update"),
    ("methods", "spectral_norm", "methods.spectral_norm"),
    ("methods", "transmitting_matrices", "methods.transmitting_matrices"),
    ("hessian", "hvp", "hessian.hvp"),
    ("hessian", "top_eigenpairs", "hessian.top_eigenpairs"),
    ("hessian", "hutchinson_trace", "hessian.hutchinson_trace"),
    ("hessian", "hessian_diagonal", "hessian.hessian_diagonal"),
    ("hessian", "landscape_slice", "hessian.landscape_slice"),
    ("hessian", "cross_client_metrics", "hessian.cross_client_metrics"),
    ("orchestrator", "build_state", "orchestrator.build_state"),
    ("orchestrator", "run_round", "orchestrator.run_round"),
    ("orchestrator", "sample_clients", "orchestrator.sample_clients"),
    ("orchestrator", "aggregate", "orchestrator.aggregate"),
    ("orchestrator", "evaluate", "orchestrator.evaluate"),
    ("orchestrator", "save_checkpoint", "orchestrator.save_checkpoint"),
    ("orchestrator", "load_checkpoint", "orchestrator.load_checkpoint"),
    ("orchestrator", "emit_metrics", "orchestrator.emit_metrics"),
    ("cli", "_cmd_diagnose", "cli.diagnose"),
]

# per-layer metrics read under another name
ALIASES = {"methods.local_steps": "tensor.sgd_step.calls"}

# a forward that calls another public forward records only the outer span
OUTERMOST = {"models.forward"}

MODULES = ("tensor", "models", "data", "methods", "hessian", "orchestrator", "cli")


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                    for m in MODULES]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        outermost = name in OUTERMOST
        before, after = hook if hook else (None, None)

        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[idx][2] = clock()
            if after:
                after(args, kwargs, out, state)
            return out

        return wrapper

    def _hook(self, name: str):
        """(before, after) callables that derive counters from a call."""
        counts = self.counts

        def attempts(args, kwargs, out, state):
            counts["data.dirichlet_partition.attempts"] += out.attempts

        def unconverged(args, kwargs, out, state):
            counts["hessian.eigenpairs.unconverged"] += sum(not ok for ok in out[2])

        def checkpoint_bytes(args, kwargs, out, state):
            counts["orchestrator.checkpoint_bytes"] += _size(_arg(args, kwargs, 0, "path"))

        def csv_size(args, kwargs):
            return _size(os.path.join(_arg(args, kwargs, 1, "out_dir"), "metrics.csv"))

        def metrics_bytes(args, kwargs, out, csv_before):
            # metrics.json is rewritten whole, metrics.csv is appended to
            out_dir = _arg(args, kwargs, 1, "out_dir")
            counts["orchestrator.metrics_bytes"] += (
                _size(os.path.join(out_dir, "metrics.json")) + csv_size(args, kwargs)
                - csv_before)

        return {
            "data.dirichlet_partition": (None, attempts),
            "hessian.top_eigenpairs": (None, unconverged),
            "orchestrator.save_checkpoint": (None, checkpoint_bytes),
            "orchestrator.emit_metrics": (csv_size, metrics_bytes),
        }.get(name)

    # -- installation -----------------------------------------------------------

    def _replace(self, holder, attr: str, new) -> None:
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self) -> None:
        tensor_cls = self.package.tensor.Tensor
        original_init = tensor_cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["tensor.nodes"] += 1
            original_init(obj, *args, **kwargs)

        self._replace(tensor_cls, "__init__", counted_init)
        for mod_name, attr, name in TARGETS:
            home = importlib.import_module(f"{self.package.__name__}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._replace(cls, meth, self._wrap(getattr(cls, meth), name))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, name, self._hook(name))
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, value = self._saved.pop()
            setattr(holder, attr, value)

    # -- results ----------------------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict]:
        """Per span name: call counts, and seconds both total and self."""
        calls: Counter = Counter()
        secs: defaultdict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            secs[name + ".s"] += end - start
            secs[name + ".self_s"] += end - start - inner
        return calls, secs

    def values(self, names, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass: `<span>.calls`, `<span>.s`,
        `<span>.self_s`, a counter's name, or `trace.spans`."""
        calls, secs = self.totals()
        out = {}
        for name in names:
            key = ALIASES.get(name, name)
            if key == "trace.spans":
                total = len(self.spans)
            elif key.endswith(".calls"):
                total = calls[key[:-len(".calls")]]
            elif key.endswith((".s", ".self_s")):
                total = secs[key]
            else:
                total = self.counts[key]
            out[name] = total / passes
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)
