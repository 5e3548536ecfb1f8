"""Outside-in tracer: per-layer self time, calls and raises for qslbound.

The layers are the package's modules.  The tracer wraps every public
function of each layer, plus the ``__post_init__`` of the layer's public
dataclasses (scenario, grid and curve validation live there), and puts the
wrapper into every ``qslbound.*`` namespace that holds the original.  A
module that did ``from .linalg import require_hermitian`` calls through its
own global, so patching only the defining module would miss those calls.
A closure returned by a wrapped function and defined in the same module
(``propagator_family`` returns ``u_of_t``) is wrapped as well, so per-sample
work done through it is charged to its layer.

Spans nest on a stack.  A span's self time is its duration minus the
durations of its direct child spans, so the self times of all spans add up
to the duration of the top-level spans.  Statistics stay in memory and are
read once at the end of the run.  Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

PACKAGE = "qslbound"

LAYERS = (
    "linalg",
    "states",
    "measures",
    "dynamics",
    "quadrature",
    "bounds",
    "scenarios",
    "presets",
    "emit",
    "cli",
    "verify",
    "reference_forms",
)


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Collects per-span statistics while installed; see the module doc."""

    def __init__(self):
        # span name -> [calls, self seconds, raised, bytes of str results]
        self.stats: dict[str, list] = {}
        self.top_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str):
        rec = self.stats.setdefault(name, [0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        module = fn.__module__
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] += 1
                raise
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt
            if type(result) is str:
                rec[3] += len(result.encode())
            elif type(result) is types.FunctionType and result.__module__ == module:
                return tracer._wrap(result, f"{name}.{result.__name__}")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions in every package namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = {mod.__name__: mod for mod in _package_modules()}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(
                        obj,
                        "__post_init__",
                        self._wrap(vars(obj)["__post_init__"], f"{layer}.{attr}.__post_init__"),
                    )
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: self seconds, calls and raised, summed over its spans."""
        out = {layer: {"self_s": 0.0, "calls": 0, "raised": 0} for layer in LAYERS}
        for name, (calls, self_s, raised, _) in self.stats.items():
            layer = out[name.split(".", 1)[0]]
            layer["self_s"] += self_s
            layer["calls"] += calls
            layer["raised"] += raised
        return out

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def result_bytes(self, prefix: str) -> int:
        """Bytes of text returned by the top-level renderers under ``prefix``
        (``fmt`` strings are part of those and not counted again)."""
        return sum(
            rec[3] for name, rec in self.stats.items()
            if name.startswith(prefix) and name != prefix + "fmt"
        )
