"""In-memory span tracer for calls into platoonctl's modules.

``Tracer.install`` wraps every public function defined in the given modules
and points every module attribute that referenced the original at the
wrapper, so calls through ``from .x import f`` bindings are traced too and
nested calls become child spans. Each span records its name, the span that
caused it, the root span it belongs to, and its start and end in
nanoseconds. Per-function call counts, total and self times are exact for
every call; raw spans are kept in memory up to ``span_cap`` and written out
by ``dump`` at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[list[int]] = []  # [name_id, parent, root, start_ns, end_ns]
        self.dropped = 0
        self.root_calls: dict[tuple[int, int], int] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [name_id, span index or -1, start_ns, child_ns]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _open(self, name_id: int) -> None:
        stack = self._stack
        if stack:
            parent, root = stack[-1][1], stack[0][1]
            key = (stack[0][0], name_id)
            self.root_calls[key] = self.root_calls.get(key, 0) + 1
        else:
            parent, root = -1, len(self.spans)
        start = perf_counter_ns()
        if len(self.spans) < self.span_cap:
            index = len(self.spans)
            self.spans.append([name_id, parent, root, start, start])
        else:
            index = -1
            self.dropped += 1
        stack.append([name_id, index, start, 0])

    def _close(self) -> None:
        end = perf_counter_ns()
        name_id, index, start, child_ns = self._stack.pop()
        duration = end - start
        self.calls[name_id] += 1
        self.total_ns[name_id] += duration
        self.self_ns[name_id] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.spans[index][4] = end

    @contextmanager
    def span(self, name: str, layer: str):
        self._open(self._name_id(name, layer))
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name_id: int, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def install(self, modules, hooks=None) -> None:
        """Trace the public functions of ``modules`` (layer = last name part);
        every reference to them in ``modules`` is replaced.

        ``hooks`` maps a span name such as ``simulator.sample_interarrivals``
        to a callable receiving ``(args, kwargs)`` before each call.
        """
        hooks = hooks or {}
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(obj, self._name_id(name, layer), hooks.get(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def root(self) -> str | None:
        """Name of the root span currently open, if any."""
        return self.names[self._stack[0][0]] if self._stack else None

    def stats(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) of one span name; zeros if never seen."""
        i = self._ids.get(name)
        if i is None:
            return 0, 0, 0
        return self.calls[i], self.total_ns[i], self.self_ns[i]

    def calls_under(self, root: str, name: str) -> int:
        """Calls of ``name`` made inside root spans called ``root``."""
        if root not in self._ids or name not in self._ids:
            return 0
        return self.root_calls.get((self._ids[root], self._ids[name]), 0)

    def layer_self_ns(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for layer, self_ns in zip(self.layers, self.self_ns):
            out[layer] = out.get(layer, 0) + self_ns
        return out

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "parent", "root", "start_ns", "end_ns"],
            "names": self.names,
            "layers": self.layers,
            "span_cap": self.span_cap,
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
