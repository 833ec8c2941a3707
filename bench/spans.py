"""Outside-in span recorder.

The recorder wraps chosen functions of an already imported package from the
outside: it replaces every module-global name and class attribute that holds
the original function object with one wrapper. A function that a second
module imported by name (``from .operators import apply_team``) is therefore
caught at both names, and a method replaced in its class is caught for every
subclass that inherits it.

Each call of a wrapped function becomes one span: its key, start, end, the
index of the span that was open when it started (its parent, or -1) and an
optional dict of counts. Spans stay in memory until the caller writes them
out. The program is single-threaded, so one stack of open spans suffices.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable

# span fields, stored as lists so a wrapper can fill in its end time in place
KEY, START, END, PARENT, INFO = range(5)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``module`` and ``attr`` locate the original (``attr`` may be
    ``Class.method``). ``key`` names its spans; ``label``, given the positional
    arguments, appends ``.<label>`` to the key; ``describe``, given the
    positional arguments and the result, returns counts stored on the span.
    """

    module: str
    attr: str
    key: str
    label: Callable[[tuple], str] | None = None
    describe: Callable[[tuple, Any], dict[str, float]] | None = None


def resolve(target: Target) -> Callable:
    owner: Any = sys.modules[target.module]
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the raw function from the class dict, not a bound or inherited lookup
    return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Callable]] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack
        key, label, describe = target.key, target.label, target.describe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [key if label is None else f"{key}.{label(args)}", 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[INFO] = {"failed": 1}
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if describe is not None:
                span[INFO] = describe(args, result)
            return result

        return wrapper

    def install(self, targets: Iterable[Target], modules: Iterable[ModuleType]) -> None:
        """Wrap every target and rebind each name that refers to it."""
        modules = list(modules)
        module_names = {module.__name__ for module in modules}
        classes = {
            value for module in modules for value in vars(module).values()
            if isinstance(value, type) and value.__module__ in module_names
        }
        owners = [*modules, *classes]
        for target in targets:
            original = resolve(target)
            wrapper = self.wrap(original, target)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, name, wrapper)
                        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "key": span[KEY], "start": span[START],
                     "end": span[END], "parent": span[PARENT], "info": span[INFO]}
                ) + "\n")


def package_modules(package: str) -> list[ModuleType]:
    """The package and every submodule of it that is imported."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def covered_length(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of ``intervals`` covers."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START]
        - covered_length(span[START], span[END], children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span key: ``calls``, total seconds ``s``, ``self_s``, and the sum of
    every count the spans carry (``failed`` for raised exceptions)."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[KEY]]
        entry["calls"] += 1
        entry["s"] += span[END] - span[START]
        entry["self_s"] += own
        for name, value in (span[INFO] or {}).items():
            entry[name] += value
    return totals
