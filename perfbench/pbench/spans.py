"""In-memory spans around the program's public functions.

:class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call: an id, the id of the span that caused it, a
name, a layer, host start and end times, and for batch calls the number
of items.  Patching happens only in the benchmark's own process and is
undone by :meth:`Tracer.uninstall`; the program's source is untouched.

A synchronous span's parent is the innermost synchronous span open at
the call, or else the asynchronous span whose task made the call.  An
asynchronous span (a coroutine) has no self time: while it awaits,
other work runs, so only its residence is recorded.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from pbench.common import clock


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    is_async: bool
    items: int


class Tracer:
    """Records spans for every call to the functions it wraps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._task_span: contextvars.ContextVar = contextvars.ContextVar(
            "pbench_task_span", default=None)
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _parent(self) -> Optional[int]:
        return self._stack[-1] if self._stack else self._task_span.get()

    def wrap(self, fn: Callable, name: str, layer: str,
             items_arg: Optional[int] = None) -> Callable:
        """A synchronous wrapper; ``items_arg`` indexes a sized argument."""
        tracer = self
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else tracer._task_span.get()
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(
                    span_id, parent, name, layer, start, end, False,
                    len(args[items_arg]) if items_arg is not None else 1))

        return traced

    def wrap_async(self, fn: Callable, name: str, layer: str) -> Callable:
        """A coroutine wrapper: records residence, parents its callees."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._parent()
            token = tracer._task_span.set(span_id)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._task_span.reset(token)
                tracer.spans.append(Span(span_id, parent, name, layer,
                                         start, end, True, 1))

        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``, remembering the original for uninstall."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_callable(self, module: str, path: str, name: str, layer: str,
                       items_arg: Optional[int] = None,
                       is_async: bool = False) -> None:
        """Wrap ``module.path`` (``"Class.method"`` or ``"function"``)."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapped = (self.wrap_async(fn, name, layer) if is_async
                   else self.wrap(fn, name, layer, items_arg))
        self.patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Self time of every synchronous span, by span id."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and not span.is_async:
                children[span.parent] += span.end - span.start
        return {span.id: span.end - span.start - children[span.id]
                for span in self.spans if not span.is_async}

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tlayer\tstart\tend\tasync\titems\n")
            for span in self.spans:
                out.write(
                    f"{span.id}\t{'' if span.parent is None else span.parent}"
                    f"\t{span.name}\t{span.layer}\t{span.start!r}"
                    f"\t{span.end!r}\t{int(span.is_async)}\t{span.items}\n")
