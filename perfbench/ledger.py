"""Per-layer self-time ledger, recorded from outside the program.

The ledger wraps the public entry point of each layer (a module function or
a class method) in a timer.  A call's *self time* is its duration minus the
durations of the wrapped calls nested inside it, so the self times of all
layers add up to the time spent inside any wrapped layer, and
``wall - sum(self)`` is the time no layer claims.

A module function is replaced in its defining module *and* in every
``repro.*`` module that bound it with ``from ... import name``; a binding the
scan cannot reach (a closure, a default argument) shows up as a simulation
count that disagrees with the workload's, which the benchmark checks.

Pool workers inherit the wrappers by fork, but what they record stays in
the worker: the parent sees a pool work unit only through the result it
returns.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``after(ledger, args, result, duration_s)`` — counts a finished call's work.
Hook = Callable[["Ledger", Tuple[Any, ...], Any, float], None]


class Ledger:
    """Self time, call counts and work counts per named layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable, after: Optional[Hook]) -> Callable:
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                nested = stack.pop()
                self.self_s[layer] += duration - nested
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(self, args, result, duration)
            return result

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_method(self, cls: type, name: str, layer: str,
                    after: Optional[Hook] = None) -> None:
        """Time ``cls.name`` (looked up on the class at every call)."""
        self._patch(cls, name, self._wrap(layer, cls.__dict__[name], after))

    def wrap_function(self, module: Any, name: str, layer: str,
                      after: Optional[Hook] = None) -> None:
        """Time ``module.name`` and every ``repro.*`` binding of it."""
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
