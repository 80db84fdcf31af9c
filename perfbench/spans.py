"""Span tracing of the wondertoric modules, installed from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced modules, plus the public methods listed in ``METHODS``, by a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  A function is rebound under every name that any
loaded wondertoric module gave it, so ``presentation.is_groebner`` (bound
by ``from .polyring import is_groebner``) and ``polyring.is_groebner``
both reach the wrapper.  ``uninstall`` puts the originals back.

Methods of the value classes (``VariableTable``, ``Polynomial``,
``RankedPoset``, ``Sublattice``, ``Layer``) run millions of times per model
and are left unwrapped: a span there would cost more than the call.
Their time counts as self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

MODULES = ("cli", "arrangement", "intlinalg", "poset", "fan", "polyring",
           "presentation", "admissible")

METHODS = {
    "polyring": {"GroebnerBasis": ("reduce", "standard_monomials",
                                   "minimalize")},
    "poset": {"BlowupPoset": ("is_locally_boolean",)},
    "presentation": {"ModelPresentation": (
        "relations", "alpha", "verify_alpha", "betti", "restricted_gb",
        "restriction_map_check", "leading_monomial_findings",
        "delete_last", "contract_last")},
}

# span record fields
NAME, START, END, PARENT, DATA = range(5)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, hooks=None, clock=time.perf_counter):
        # hooks: span name -> f(args, kwargs, result) -> dict of counts
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, None])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, name: str, fn):
        begin, end, hook = self._begin, self._end, self.hooks.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if hook is not None:
                spans[idx][DATA] = hook(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "wondertoric") -> int:
        """Wrap the traced functions under all their bindings; return count."""
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == package or name.startswith(package + ".")}
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = loaded.get(f"{package}.{short}")
            if mod is None:
                raise RuntimeError(f"{package}.{short} is not imported")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._patch(cls, meth,
                                self._wrap(f"{short}.{cls_name}.{meth}", fn))
        for mod in loaded.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped_original__ is obj:
                    self._patch(mod, attr, wrapper)
        return len(self._undo)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def inclusive(self, *names: str, parent: str | None = None) -> float:
        """Seconds inside spans of these names, counting nested ones once.

        With ``parent``, only spans whose enclosing span has that name.
        """
        wanted = set(names)
        total = 0.0
        for s in self.spans:
            if (s[NAME] in wanted and self._parent_is(s, parent)
                    and not self._has_ancestor(s, wanted)):
                total += s[END] - s[START]
        return total

    def _parent_is(self, span, parent: str | None) -> bool:
        return parent is None or (span[PARENT] >= 0
                                  and self.spans[span[PARENT]][NAME] == parent)

    def _has_ancestor(self, span, names) -> bool:
        p = span[PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return True
            p = self.spans[p][PARENT]
        return False

    def calls(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for s in self.spans if s[NAME] in wanted)

    def count(self, name: str, key: str, parent: str | None = None,
              combine=sum) -> int:
        """Combine the hook value ``key`` over spans of ``name``.

        With ``parent``, only spans whose enclosing span has that name.
        """
        vals = [s[DATA][key] for s in self.spans
                if s[NAME] == name and s[DATA] is not None
                and self._parent_is(s, parent)]
        return combine(vals) if vals else 0

    def self_times(self) -> dict[str, float]:
        """Per-module self time: span duration minus its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            module = s[NAME].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (s[END] - s[START]) - c
        return out
