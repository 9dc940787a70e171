"""Spans around the calls into each layer of the library, for the traced run.

`Tracer.install()` rebinds the public functions below at every name the
library's modules bind them to (and on the `Subspace` class for methods), so
the wrappers see calls between layers as well as calls from the benchmark.
Spans are recorded only while `active` is set, which the runner does around
each timed op.  A name that no longer exists is skipped and listed in
`missing`, so the tracer keeps working when a function is deleted.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("fp", "subspace", "core", "search", "instancefile", "cli")

# (module, attribute or Class.method, span name or None when the name depends
# on the arguments, counter hook or None)
TARGETS = [
    ("multispace.fp", "rref", "fp.rref", "cells"),
    ("multispace.fp", "solve_membership", "fp.solve_membership", None),
    ("multispace.subspace", "Subspace.__post_init__", "subspace.check", None),
    ("multispace.subspace", "span", "subspace.span", None),
    ("multispace.subspace", "Subspace.intersect", "subspace.intersect", None),
    ("multispace.subspace", "Subspace.enumerate", "subspace.enumerate", "vectors"),
    ("multispace.subspace", "Subspace.contains", "subspace.contains", None),
    ("multispace.core", "linearly_dependent", None, "dependence"),
    ("multispace.core", "greedy_basis", "core.greedy_basis", None),
    ("multispace.core", "dim_inclusion_exclusion", "core.dim_ie", "subsets"),
    ("multispace.core", "validate_axioms", "core.validate_axioms", "checks"),
    ("multispace.core", "linear_span", "core.linear_span", None),
    ("multispace.core", "is_multi_subspace", "core.is_multi_subspace", None),
    ("multispace.search", "random_instance", "search.random_instance", None),
    ("multispace.instancefile", "parse_instance", "instancefile.parse_instance", "bytes"),
    ("multispace.cli", "main", "cli.main", None),
]

DEPENDENCE_PATHS = ("core.dependence.rank", "core.dependence.trivial", "core.dependence.exhaustive")


def _dependence_path(args, kwargs) -> str:
    """The branch `linearly_dependent` takes, from its policy and ambient count."""
    space = args[0] if args else kwargs["space"]
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    if space.policy.value == "CLOSED":
        return "core.dependence.exhaustive"
    if len({v.ambient for v in vectors}) > 1:
        return "core.dependence.trivial"
    return "core.dependence.rank"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, hook):
        tracer = self
        fixed = None if name is None else self._id(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else tracer._id(_dependence_path(args, kwargs))
            sid = len(tracer.start)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.name.append(nid)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[sid] = time.perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    tracer._count(hook, tracer.names[nid], args, kwargs, None, exc)
                raise
            tracer.end[sid] = time.perf_counter()
            tracer._stack.pop()
            if hook is not None:
                tracer._count(hook, tracer.names[nid], args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, hook, name, args, kwargs, result, exc) -> None:
        c = self.counts
        if hook == "cells":
            m = args[0]
            c["fp.rref.cells"] += m.rows * m.cols
        elif hook == "vectors" and result is not None:
            c["subspace.enumerate.vectors"] += len(result)
        elif hook == "dependence":
            vectors = args[1] if len(args) > 1 else kwargs["vectors"]
            if name == "core.dependence.exhaustive":
                c["core.dependence.exhaustive.tuple_bound"] += math.prod(
                    v.ambient.p for v in vectors
                )
                if exc is not None and type(exc).__name__ == "SearchTooLarge":
                    c["core.dependence.exhaustive.cap_failures"] += 1
            elif name == "core.dependence.rank":
                c["core.dependence.rank.vectors"] += len(vectors)
        elif hook == "subsets" and exc is None:
            space = args[0] if args else kwargs["space"]
            c["core.dim_ie.subsets"] += 2 ** len(space.components) - 1
        elif hook == "checks" and result is not None:
            c["core.validate_axioms.checks"] += (
                result.closure_checks + result.associativity_checks + result.distributivity_checks
            )
        elif hook == "bytes":
            text = args[0] if args else kwargs["text"]
            c["instancefile.parse_instance.bytes"] += len(text.encode())

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "multispace" or n.startswith("multispace.")]
        for module_name, attr, name, hook in TARGETS:
            home = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                self._rebind(owner, member, wrapper)
                continue
            for module in modules:
                if getattr(module, member, None) is original:
                    self._rebind(module, member, wrapper)
        for path in DEPENDENCE_PATHS:
            self._id(path)

    def _rebind(self, owner, member, value) -> None:
        self._undo.append((owner, member, owner.__dict__[member]))
        setattr(owner, member, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, member, original = self._undo.pop()
            setattr(owner, member, original)

    def write(self, path: Path) -> None:
        """Spans as CSV: id, parent id, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )

    def metrics(self, traced_wall_s: float, ops: int) -> dict[str, float]:
        """Per-op calls, self time and work counters; ratios; layer shares.

        Counts and times are divided by the number of traced ops, because the
        traced run is time-bounded: a faster program runs more ops.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += duration[i] - child[i]
            incl_s[name] += duration[i]

        def under(child_name: str, ancestors: tuple[str, ...]) -> dict[str, int]:
            """Spans named child_name counted by their nearest listed ancestor."""
            wanted = {self._ids[a] for a in ancestors if a in self._ids}
            cid = self._ids.get(child_name)
            out: dict[str, int] = defaultdict(int)
            for i in range(n):
                if self.name[i] != cid:
                    continue
                j = self.parent[i]
                while j >= 0 and self.name[j] not in wanted:
                    j = self.parent[j]
                if j >= 0:
                    out[self.names[self.name[j]]] += 1
            return out

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for name in (
            "fp.rref", "fp.solve_membership", "subspace.check", "subspace.span",
            "subspace.intersect", "subspace.enumerate", "subspace.contains",
            *DEPENDENCE_PATHS, "core.greedy_basis", "core.dim_ie", "core.validate_axioms",
            "core.linear_span", "core.is_multi_subspace", "search.random_instance",
            "instancefile.parse_instance", "cli.main",
        ):
            m[f"{name}.calls"] = calls[name] / ops
            m[f"{name}.self_s"] = self_s[name] / ops
        for key in (
            "fp.rref.cells", "subspace.enumerate.vectors", "core.dependence.exhaustive.tuple_bound",
            "core.dependence.exhaustive.cap_failures", "core.dependence.rank.vectors",
            "core.dim_ie.subsets", "core.validate_axioms.checks", "instancefile.parse_instance.bytes",
        ):
            m[key] = self.counts[key] / ops
        rref_by = under("fp.rref", ("subspace.span", "subspace.intersect"))
        m["subspace.rref_per_span"] = ratio(rref_by["subspace.span"], calls["subspace.span"])
        m["subspace.rref_per_intersect"] = ratio(
            rref_by["subspace.intersect"], calls["subspace.intersect"]
        )
        dependence_in_greedy = sum(
            under(path, ("core.greedy_basis",))["core.greedy_basis"] for path in DEPENDENCE_PATHS
        )
        m["core.greedy_basis.dependence_per_basis"] = ratio(
            dependence_in_greedy, calls["core.greedy_basis"]
        )
        m["core.dim_ie.intersect_per_subset"] = ratio(
            under("subspace.intersect", ("core.dim_ie",))["core.dim_ie"],
            self.counts["core.dim_ie.subsets"],
        )
        for name, short in (
            ("core.dim_ie", "core.dim_ie"),
            ("core.dependence.exhaustive", "core.dependence.exhaustive"),
            ("core.validate_axioms", "core.validate_axioms"),
        ):
            m[f"{short}.incl_share"] = ratio(incl_s[name], traced_wall_s)
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            m[f"{layer}.self_s"] = layer_self / ops
            m[f"{layer}.share"] = ratio(layer_self, traced_wall_s)
        m["trace.spans"] = n / ops
        m["trace.ops"] = ops
        return m
