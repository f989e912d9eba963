"""Span tracing from outside the package.

``install()`` wraps the public functions and public methods of each layer
module (its ``__all__``) and rebinds every ``cotmoments.*`` name that refers
to them: module globals, module-level dicts (such as builder maps) and
lists, and function defaults.  The package imports with
``from .x import f``, so patching only the defining module would miss
calls made through the other bindings; ``install`` therefore asserts
afterwards that no unwrapped binding is left.

Spans (name, start, end, parent, info) are kept in memory and written out
by the caller at the end of the run.  ``info`` holds counts taken from
arguments and return values: quadrature evaluations and levels, series
truncation N, table sizes, eta keys and suite names.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List

LAYERS = ("exact", "cfn", "hpreal", "quadrature", "series", "moments",
          "report", "cli")


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _info(name: str, args, kwargs, result):
    """Counts for the span, from arguments and the return value."""
    if name in ("quadrature.integrate_1d", "quadrature.integrate_2d_iterated"):
        return [result.evaluations, result.levels]
    if name == "moments.c_cfn_route":
        return result.truncation
    if name == "hpreal.eta":
        return [_arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "P")]
    if name.startswith("cfn.build_"):
        return (_arg(args, kwargs, 0, "kmax") + 1) * (_arg(args, kwargs, 1, "nmax") + 1)
    if name == "moments.run_suite":
        return _arg(args, kwargs, 0, "name")
    return None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        # [name, start, end, parent index, info]
        self.spans: List[list] = []
        self._clock = clock
        self._stack: List[int] = []
        self._originals: Dict[int, Callable] = {}

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [sys.modules[f"cotmoments.{layer}"] for layer in LAYERS]
        wrappers: Dict[int, Callable] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                    self._originals[id(obj)] = obj
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._originals[id(meth)] = meth
                        setattr(obj, mname, self._wrap(meth, f"{layer}.{attr}.{mname}"))
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "cotmoments" or n.startswith("cotmoments.")]
        for module in package:
            self._rebind(vars(module), wrappers)
        leftover = self.unwrapped_bindings(package)
        if leftover:
            raise RuntimeError(f"unwrapped bindings left after patching: {leftover}")

    def _rebind(self, namespace: dict, wrappers: Dict[int, Callable]) -> None:
        for key, value in list(namespace.items()):
            if self._is_original(value) and id(value) in wrappers:
                namespace[key] = wrappers[id(value)]
            elif isinstance(value, dict) and not key.startswith("__"):
                self._rebind(value, wrappers)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if self._is_original(item) and id(item) in wrappers:
                        value[i] = wrappers[id(item)]
            elif inspect.isfunction(value) and value.__defaults__:
                value.__defaults__ = tuple(
                    wrappers[id(d)] if self._is_original(d) and id(d) in wrappers else d
                    for d in value.__defaults__)

    def _is_original(self, obj) -> bool:
        return id(obj) in self._originals and self._originals[id(obj)] is obj

    def unwrapped_bindings(self, modules) -> List[str]:
        """Names in the package that still refer to an unwrapped function."""
        found: List[str] = []

        def scan(where: str, value) -> None:
            if self._is_original(value):
                found.append(where)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for i, item in enumerate(value):
                    scan(f"{where}[{i}]", item)
            elif inspect.isfunction(value):
                for i, d in enumerate(value.__defaults__ or ()):
                    scan(f"{where}.__defaults__[{i}]", d)
                for k, d in (value.__kwdefaults__ or {}).items():
                    scan(f"{where}.__kwdefaults__[{k}]", d)
            elif inspect.isclass(value):
                for k, d in vars(value).items():
                    if self._is_original(d):
                        found.append(f"{where}.{k}")

        for module in modules:
            for key, value in vars(module).items():
                if key.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for k, v in value.items():
                        scan(f"{module.__name__}.{key}[{k!r}]", v)
                else:
                    scan(f"{module.__name__}.{key}", value)
        return found
