"""In-memory span recorder that wraps spincoins functions from outside.

Spans are recorded around the public module-level functions of the traced
modules (and ``RngSpec.generator``), installed by replacing module
attributes for the duration of a ``with`` block and restored afterwards.
Classes are never replaced, so ``isinstance`` checks keep holding; code
that calls a function through its module attribute (``core.overlap(...)``,
and every call the package makes between its own modules) is traced, while
names bound by ``from ... import`` before installation are not.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# A span is (name, start_ns, end_ns, parent_index, op_id); parent -1 is a root.
Span = tuple[str, int, int, int, int]


class Tracer:
    """Collects spans in memory; the caller writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op_id = 0
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, name, start)

    def wrap(self, name: str | Callable[..., str], fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``name`` may derive the span name from the arguments."""
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name_of(*args, **kwargs) if name_of else name, start)

        return traced

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op_id)

    def self_times_ns(self) -> dict[str, list[int]]:
        """Per span name, each span's duration minus the time its children cover.

        Children of one span run one after another on this single thread, so
        the time they cover is the sum of their durations.
        """
        spans = self.spans
        covered = [0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[int]] = defaultdict(list)
        for index, (name, start, end, _parent, _op) in enumerate(spans):
            out[name].append(end - start - covered[index])
        return out


def public_functions(module: Any) -> list[str]:
    """Names of the functions defined (not imported) at module level without a leading underscore."""
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]


@contextlib.contextmanager
def installed(
    tracer: Tracer, modules: list[Any], overrides: list[tuple[Any, str, str | Callable[..., str]]] = ()
) -> Iterator[None]:
    """Wrap every public function of ``modules``; ``overrides`` adds or renames (owner, attribute, span name) targets."""
    targets: dict[tuple[Any, str], str | Callable[..., str]] = {
        (module, name): f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        for module in modules
        for name in public_functions(module)
    }
    targets.update({(owner, attr): name for owner, attr, name in overrides})
    originals = {key: vars(key[0])[key[1]] for key in targets}
    try:
        for (owner, attr), span_name in targets.items():
            setattr(owner, attr, tracer.wrap(span_name, originals[owner, attr]))
        yield
    finally:
        for (owner, attr), original in originals.items():
            setattr(owner, attr, original)
