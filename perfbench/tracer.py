"""Outside-in layer tracer for the traced benchmark run.

It replaces the public callables of the besselzeta modules, and sympy's
PolyElement.gcd/cofactors, with wrappers, and puts the originals back on
uninstall.  No program file changes.

A call that enters a layer from another layer (or from the benchmark)
opens a span: layer, name, start, end, parent span, operation id.  A call
within the layer it already is in opens none, so a layer's spans are its
outermost entries and its self time is span time minus the time of the
child spans.  Spans stay in memory until dump().

Per-term callables (character values, additive characters, residue and
Galois-ring element operations) are only counted: a span per term costs
more than the term.  A few named kernels additionally record their
inclusive time even when called from inside their own layer.

A public name that a later version of the program no longer has is
listed in ``missing`` and its metrics are left out; nothing fails.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("symfield", "localrep", "localzeta", "padicring", "classgroup",
          "globalasm", "suites", "cli")

# counted, never spanned
PER_TERM = {
    "padicring.MultChar.__call__", "padicring.MultChar.value_exponent",
    "padicring.psi_frac", "padicring.ResidueRing.dlog",
    "padicring.ResidueRing.is_unit", "padicring.GaloisRing.norm",
    "padicring.GaloisRing.trace", "padicring.GaloisRing.mul",
    "padicring.GaloisRing.conj", "padicring.GaloisRing.is_unit",
    "padicring.GaloisRing.frobenius", "globalasm.DirichletChar.__call__",
    "classgroup.ClassChar.__call__", "classgroup.QuadForm.is_reduced",
    "classgroup.QuadForm.is_primitive", "classgroup.QuadForm.is_positive_definite",
    "classgroup.QuadForm.value", "classgroup.QuadForm.transform",
    "classgroup.QuadForm.conjugate", "classgroup.QuadForm.__init__",
}

# inclusive time of the outermost call, also when called within the layer
TIMED = {
    "symfield.geom_resolvent", "symfield.RatFunc.to_text",
    "padicring.gauss_sum_L", "padicring.norm_char_sum",
    "padicring.zeta_case2_3_cosets", "globalasm.DirichletChar.gauss_sum",
    "globalasm.mellin_gamma_pin",
}

# dunders that are part of a class's public surface; LaurentPoly and Var
# are the symbolic layer's internal representation and are not wrapped
DUNDERS = ("__init__", "__call__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
           "__neg__", "__pow__")
SKIP_CLASSES = {"symfield.LaurentPoly", "symfield.Var"}


class Tracer:
    def __init__(self, timed=()):
        self.timed_names = TIMED | set(timed)
        self.spans = []          # [layer, name, start, end, parent, op]
        self.stack = []
        self.layer = None
        self.op = 0
        self.calls = {}          # name -> [count]
        self.timed = {}          # name -> [seconds]
        self.gcd = {"calls": 0, "trivial": 0}
        self.missing = []
        self._patches = []       # (owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name, fn):
        cell = self.calls.setdefault(name, [0])

        def counted(*a, **k):
            cell[0] += 1
            return fn(*a, **k)

        return counted

    def _spanner(self, layer, name, fn, on_result=None):
        cell = self.calls.setdefault(name, [0])
        tcell = self.timed.setdefault(name, [0.0]) if name in self.timed_names else None
        spans, stack, clock, tr = self.spans, self.stack, time.perf_counter, self
        active = [False]

        def enter(a, k):
            if tr.layer == layer:
                return fn(*a, **k)
            idx = len(spans)
            spans.append([layer, name, clock(), None,
                          stack[-1] if stack else -1, tr.op])
            stack.append(idx)
            prev, tr.layer = tr.layer, layer
            try:
                out = fn(*a, **k)
                if on_result is not None:
                    on_result(out)
                return out
            finally:
                spans[idx][3] = clock()
                stack.pop()
                tr.layer = prev

        def spanned(*a, **k):
            cell[0] += 1
            if tcell is None or active[0]:
                return enter(a, k)
            active[0] = True
            t0 = clock()
            try:
                return enter(a, k)
            finally:
                tcell[0] += clock() - t0
                active[0] = False

        return spanned

    def _wrap(self, layer, name, fn, on_result=None):
        if name in PER_TERM:
            return self._counter(name, fn)
        return self._spanner(layer, name, fn, on_result)

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package="besselzeta"):
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        replaced = {}            # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and f"{layer}.{attr}" not in SKIP_CLASSES:
                    self._wrap_class(layer, obj, replaced)
        # rebind every module-level name and dict value that holds an
        # original function (from-imports, the suite registry)
        holders = list(modules.values()) + [importlib.import_module(package)]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._patch(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in replaced and inspect.isfunction(val):
                            self._patches.append((obj, key, val))
                            obj[key] = replaced[id(val)]
        self._wrap_sympy_gcd()
        return self

    def _wrap_class(self, layer, cls, replaced):
        seen = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                # aliases (conjugate = inverse) share one wrapper
                new = seen.get(id(raw)) or self._wrap(layer, name, raw)
                seen[id(raw)] = new
            else:
                continue
            self._patch(cls, attr, new)

    def _wrap_sympy_gcd(self):
        try:
            from sympy.polys.rings import PolyElement
        except ImportError:
            self.missing.append("sympy.PolyElement")
            return
        gcd = self.gcd

        def note(g):
            gcd["calls"] += 1
            gcd["trivial"] += g == g.ring.one

        for attr, pick in (("gcd", lambda r: r), ("cofactors", lambda r: r[0])):
            fn = PolyElement.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"sympy.PolyElement.{attr}")
                continue
            self._patch(PolyElement, attr, self._spanner(
                "sympy", f"sympy.{attr}", fn, lambda r, pick=pick: note(pick(r))))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        for cell in self.calls.values():
            cell[0] = 0
        for cell in self.timed.values():
            cell[0] = 0.0
        self.gcd.update(calls=0, trivial=0)

    def snapshot(self) -> dict:
        """Spans and counters of everything traced since the last reset."""
        return {
            "spans": [list(s) for s in self.spans],
            "calls": {k: c[0] for k, c in self.calls.items()},
            "timed": {k: c[0] for k, c in self.timed.items()},
            "gcd": dict(self.gcd),
            "missing": list(self.missing),
        }

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({**self.snapshot(), **(extra or {})}, fh)


def self_times(spans) -> dict:
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for layer, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (layer, _, start, end, _, _) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def layer_calls(spans) -> dict:
    """Number of spans (outermost entries) per layer."""
    out = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0) + 1
    return out
