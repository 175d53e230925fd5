"""Outside-in tracing of the supersigma library.

Hooks wrap public library names from outside the program and patch each
name where callers look it up: a method on its class, a module function in
every loaded ``supersigma`` module that binds it.  Every wrapped call opens a
span (name, start, end, parent).  Spans stay in memory while the workload
runs; per-hook call counts and self times are accumulated as spans close.

NumPy kernels (``pinv``, ``svd`` and the FFT transforms) are counted, not
spanned, and each call is credited to the module of the innermost open span.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from array import array

import numpy as np

# (metric prefix "<module>.<hook>", dotted target).  The module part of the
# prefix is the layer a span is credited to.
HOOKS = [
    ("grassmann.mul", "supersigma.grassmann.GrassmannNumber.__mul__"),
    ("grassmann.add", "supersigma.grassmann.GrassmannNumber.__add__"),
    ("gridfield.construct", "supersigma.gridfield.GrassmannField.__init__"),
    ("gridfield.mul", "supersigma.gridfield.GrassmannField.__mul__"),
    ("gridfield.add", "supersigma.gridfield.GrassmannField.__add__"),
    ("gridfield.derivative", "supersigma.gridfield.GrassmannField.derivative"),
    ("gridfield.integral", "supersigma.gridfield.GrassmannField.integral"),
    ("gridfield.spectral_derivative", "supersigma.gridfield.spectral_derivative"),
    ("superdomain.mul", "supersigma.superdomain.SuperFunction.__mul__"),
    ("superdomain.partial_odd", "supersigma.superdomain.SuperFunction.partial_odd"),
    ("superdomain.partial_even", "supersigma.superdomain.SuperFunction.partial_even"),
    ("superdomain.pullback_coordinate_change",
     "supersigma.superdomain.pullback_coordinate_change"),
    ("berezin.berezin_integrate", "supersigma.berezin.berezin_integrate"),
    ("toy_model.toy_action_component", "supersigma.toy_model.toy_action_component"),
    ("toy_model.toy_action_superfield", "supersigma.toy_model.toy_action_superfield"),
    ("toy_model.toy_invariance_residual", "supersigma.toy_model.toy_invariance_residual"),
    ("toy_model.toy_embedding_residual", "supersigma.toy_model.toy_embedding_residual"),
    ("spin_surface.pairing", "supersigma.spin_surface.pairing"),
    ("spin_surface.clifford", "supersigma.spin_surface.clifford"),
    ("spin_surface.matrix_apply", "supersigma.spin_surface.SpinorField.matrix_apply"),
    ("spin_surface.weyl", "supersigma.spin_surface.weyl"),
    ("sigma2d.action_density", "supersigma.sigma2d.action_density"),
    ("sigma2d.action_component", "supersigma.sigma2d.action_component"),
    ("sigma2d.action_superfield_flat", "supersigma.sigma2d.action_superfield_flat"),
    ("sigma2d.susy_invariance_residual", "supersigma.sigma2d.susy_invariance_residual"),
    ("sigma2d.calibrate_conventions", "supersigma.sigma2d.calibrate_conventions"),
    ("sigma2d.energy_momentum", "supersigma.sigma2d.energy_momentum"),
    ("sigma2d.super_current", "supersigma.sigma2d.super_current"),
    ("sigma2d.harmonic_flow", "supersigma.sigma2d.harmonic_flow"),
    ("deformations.decompose_metric", "supersigma.deformations.decompose_metric"),
    ("deformations.decompose_gravitino", "supersigma.deformations.decompose_gravitino"),
    ("deformations.true_deformation_dimensions",
     "supersigma.deformations.true_deformation_dimensions"),
    ("report.render_report", "supersigma.report.render_report"),
]

# Hook whose FlowResult.steps_taken is summed into "<prefix>.steps".
FLOW_HOOK = "sigma2d.harmonic_flow"
DECOMPOSITION_HOOKS = ("deformations.decompose_metric", "deformations.decompose_gravitino")

KERNELS = {
    "pinv": ["numpy.linalg.pinv"],
    "svd": ["numpy.linalg.svd"],
    "fft": [f"numpy.fft.{name}" for name in (
        "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
        "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")],
}

# Layers that kernel calls are credited to.  "suites" takes every kernel
# call made while no library hook is open (suite code, benchmark code).
OUTSIDE_HOOKS = "suites"
KERNEL_MODULES = sorted({prefix.split(".")[0] for prefix, _ in HOOKS} | {OUTSIDE_HOOKS})

# Spans beyond this many are counted but not stored (bounds memory).
SPAN_CAPACITY = 1_000_000


def resolve(dotted: str):
    """Return (owner, attribute, value) for a dotted module/attribute path.

    Raises LookupError when no prefix imports or an attribute is missing.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = obj
        for name in parts[cut:]:
            owner, obj = obj, getattr(obj, name, _MISSING)
            if obj is _MISSING:
                raise LookupError(f"{dotted}: no attribute {name!r}")
        if not callable(obj):
            raise LookupError(f"{dotted}: not callable")
        return owner, parts[-1], obj
    raise LookupError(f"{dotted}: no importable module prefix")


_MISSING = object()


class Tracer:
    """Installs hooks, records spans and kernel counts, and restores on exit.

    Use as a context manager around one traced workload iteration.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = list(hooks)
        self.names: list[str] = []
        self.modules: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.missing_hooks: list[str] = []
        self.flow_steps = 0
        self.kernel_calls = {(m, k): 0 for m in KERNEL_MODULES for k in KERNELS}
        self.kernel_bytes = {m: 0 for m in KERNEL_MODULES}
        self._stack: list[list] = []
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, prefix: str, fn):
        """Return ``fn`` wrapped so that every call records a span named ``prefix``."""
        self.names.append(prefix)
        self.modules.append(prefix.split(".")[0])
        self.calls.append(0)
        self.self_s.append(0.0)
        idx = len(self.names) - 1
        clock, ids, stack = time.perf_counter, self._ids, self._stack
        calls, self_s = self.calls, self.self_s
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        is_flow = prefix == FLOW_HOOK

        def traced(*args, **kwargs):
            # frame: [name index, span id, seconds covered by child spans]
            frame = [idx, next(ids), 0.0]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(span_start) < SPAN_CAPACITY:
                    span_name.append(idx)
                    span_parent.append(parent)
                    span_start.append(start)
                    span_end.append(end)
            if is_flow:
                self.flow_steps += result.steps_taken
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", prefix)
        traced.__qualname__ = getattr(fn, "__qualname__", prefix)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @property
    def spans_dropped(self) -> int:
        return sum(self.calls) - len(self._span_start)

    def _count_kernel(self, kernel: str, fn):
        stack, modules = self._stack, self.modules
        counts, nbytes = self.kernel_calls, self.kernel_bytes
        is_fft = kernel == "fft"

        def counted(a, *args, **kwargs):
            module = modules[stack[-1][0]] if stack else OUTSIDE_HOOKS
            counts[module, kernel] += 1
            if is_fft:
                nbytes[module] += np.asarray(a).nbytes
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------------

    def _patch(self, dotted: str, make_wrapper) -> None:
        owner, attr, original = resolve(dotted)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # A module function: rebind it wherever a loaded module imported it.
        self._set(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "supersigma" or name.startswith("supersigma.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> None:
        for prefix, dotted in self.hooks:
            try:
                self._patch(dotted, lambda fn, p=prefix: self.wrap(p, fn))
            except LookupError:
                self.missing_hooks.append(prefix)
        for kernel, targets in KERNELS.items():
            for dotted in targets:
                try:
                    self._patch(dotted, lambda fn, k=kernel: self._count_kernel(k, fn))
                except LookupError:
                    pass  # e.g. a transform this numpy does not provide

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, summed over its entries."""
        out: dict[str, list] = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return {name: (c, s) for name, (c, s) in out.items()}

    def save_spans(self, path: str) -> None:
        """Write the stored spans as an .npz (names, name index, parent, start, end)."""
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self._span_name, dtype=np.int32),
                 parent=np.frombuffer(self._span_parent, dtype=np.int64),
                 start=np.frombuffer(self._span_start, dtype=np.float64),
                 end=np.frombuffer(self._span_end, dtype=np.float64),
                 dropped=np.int64(self.spans_dropped))

