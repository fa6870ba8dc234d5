"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of the ``puritynet``
modules from outside the package: each wrapper is patched into every
module namespace that binds the original, so calls between modules and
calls within one module are both recorded.  A span is (name, parent span,
operation id, start, end); spans live in flat arrays while the run goes on
and are analysed, and written out, only when it ends.

A layer's self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
from array import array

#: Modules that form the layers, in dependency order.
LAYERS = ("qstate", "states", "separability", "bs_network", "lattice", "cli")

#: Per-element helpers left unwrapped: each is called once per basis state,
#: mode or float, and a span would cost more than the call it measures.
UNTRACED = frozenset(
    {
        "lattice.mode_index",
        "lattice.mode_label",
        "lattice.flat",
        "qstate.subset_index",
        "cli.format_float",
        "cli.json_text",
    }
)


class Tracer:
    """Records spans of wrapped calls made while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fock_dim_max = 0
        self.partial_trace_bytes = 0
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, parent: int, op: int, start: float, end: float) -> int:
        """Append one finished span (the wrappers inline this for speed)."""
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, name: str, fn, clock):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if name == "qstate.partial_trace":
                # computed from array sizes: input matrix read plus output written
                self.partial_trace_bytes += args[0].matrix.nbytes + result.matrix.nbytes
            elif name == "lattice.build_fock_basis":
                self.fock_dim_max = max(self.fock_dim_max, result.dim)
            return result

        return traced

    def install(self, package, clock) -> None:
        """Patch every public function and method of the layer modules."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name in UNTRACED:
                        continue
                    wrapper = self.wrap(name, obj, clock)
                    for ns in modules:
                        if vars(ns).get(attr) is obj:
                            self._patch(ns, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj, clock)

    def _install_methods(self, layer: str, cls, clock) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if name in UNTRACED:
                continue
            if name in self._name_ids:
                name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(name, member, clock))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, member.__func__, clock)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``.

    ``s`` is the union of the name's spans, so a recursive call is not
    counted twice; ``self_s`` sums each span's duration minus the union of
    its children clipped to the span.
    """
    n = len(tracer)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children[p].append(i)
    by_name: dict[str, dict[str, float]] = {}
    spans_of: dict[str, list[tuple[float, float]]] = {}
    for i in range(n):
        name = tracer.names[tracer.name_id[i]]
        s, e = tracer.start[i], tracer.end[i]
        kids = [
            (max(s, tracer.start[c]), min(e, tracer.end[c]))
            for c in children[i]
            if tracer.start[c] < e and tracer.end[c] > s
        ]
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (e - s) - covered(kids)
        spans_of.setdefault(name, []).append((s, e))
    for name, spans in spans_of.items():
        by_name[name]["s"] = covered(spans)
    return by_name
