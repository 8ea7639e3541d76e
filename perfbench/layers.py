"""Outside-in layer trace of the jacmate package.

Every public function of a layer module, and every public method of a
public class defined there, is replaced by a wrapper for as long as the
trace is installed.  A function is patched under each name that binds it in
every ``jacmate`` module namespace, so intra-package calls such as
``check_no_critical_points`` from ``build_tongue`` or ``uni.isolate_roots``
from the slice loop go through the wrapper too.

For each traced name the wrapper records calls, inclusive time (outermost
activation only, so recursion is not counted twice) and self time
(inclusive minus the time of traced callees).  The hottest leaf functions
are counted but not timed, which keeps the trace overhead small; their time
stays in their caller's self time.  Spans are kept in memory only.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "poly", "polygon", "univariate", "branches", "tongue", "falsifier", "certificate")

# Called 10^4..10^5 times per tongue document, each in a few microseconds.
COUNT_ONLY = frozenset(
    {"poly.evaluate_approx", "univariate.ueval", "univariate.normalize", "univariate.degree"}
)


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0


def traced_functions():
    """Yield (name, owner, attribute, function) for everything to wrap.

    ``name`` is ``<layer>.<function>``; ``owner`` is a module or a class.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "jacmate" or n.startswith("jacmate.")]
    for layer in LAYERS:
        mod = sys.modules[f"jacmate.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is obj:
                            yield f"{layer}.{attr}", owner, bound, obj
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{meth}", obj, meth, fn


def traced_names() -> set[str]:
    """The ``<layer>.<function>`` names a trace would record."""
    return {name for name, _, _, _ in traced_functions()}


class LayerTrace:
    """Install with ``with LayerTrace() as trace:``; read ``trace.stats``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("trace already installed")
        wrappers: dict[int, object] = {}
        origin: dict[str, object] = {}
        for name, owner, attr, fn in list(traced_functions()):
            if origin.setdefault(name, fn) is not fn:
                raise RuntimeError(f"two functions would share the trace name {name}")
            if id(fn) not in wrappers:
                stat = self.stats.setdefault(name, Stat())
                wrappers[id(fn)] = self._wrap(name, fn, stat)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name: str, fn, stat: Stat):
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += took
                stat.self_s += took - children[0]
                if stack:
                    stack[-1][0] += took

        return timed

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def seconds(self, name: str) -> float:
        return self.stats[name].incl_s

    def layer_totals(self, layer: str) -> tuple[int, float]:
        """Calls into a layer and the layer's self time."""
        prefix = layer + "."
        picked = [s for n, s in self.stats.items() if n.startswith(prefix)]
        return sum(s.calls for s in picked), sum(s.self_s for s in picked)
