"""Per-layer tracing of `sblinks` from outside the library.

`Tracer.install()` replaces the public functions of every loaded `sblinks`
module, and the few methods named in `METHODS`, by wrappers that record
aggregate spans: a call count and a self time per layer name.  Self time is
a span's duration minus the time its child spans cover, kept with one
accumulator per open span, so memory stays bounded however many calls are
made.  `Tracer.uninstall()` puts every original back.

Spans are recorded only around calls into the library; nothing inside
`sblinks` is changed.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

# Methods have no module-level name, so each is given the layer name that
# the benchmark reports.  `count_only` wrappers skip timing: QZeta
# multiplication is the innermost hot call, and its time stays with the
# span that called it.
METHODS = {
    ("scalars", "QZeta", "__mul__"): ("scalars.qzeta_mul", True),
    ("field_tower", "FieldElement", "__mul__"): ("field_tower.mul", False),
    ("field_tower", "FieldElement", "inverse"): ("field_tower.inverse", False),
    ("field_tower", "RationalFunction", "__mul__"): ("field_tower.rf_mul", False),
    ("field_tower", "GaloisAction", "apply"): ("field_tower.galois", False),
    ("multipoly", "MPoly", "subst"): ("multipoly.subst", False),
    ("birational", "RationalMap", "__init__"): ("birational.RationalMap.init", False),
}

# Sums over all `compose(f, h)` calls: the degree before the common factor
# is removed, the degree after, and the term count of the result.
COMPOSE_COUNTERS = (
    "birational.compose.raw_degree",
    "birational.compose.out_degree",
    "birational.compose.out_terms",
)

# Modules that are not arithmetic layers and take no part in a workload.
SKIPPED_MODULES = ("sblinks.__main__", "sblinks.cli", "sblinks.errors")


class Tracer:
    """Aggregate spans and counters for the calls into `sblinks`.

    `clock` is replaceable so tests can drive spans with a fake clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        # stack[-1] accumulates the time covered by the children of the
        # innermost open span; stack[0] collects top-level span durations.
        self._stack = [0.0]
        self._patched = []  # (owner, attribute, original), in patch order

    # -- spans -------------------------------------------------------------

    def top_level_s(self) -> float:
        """Total duration of the spans that no other span encloses."""
        return self._stack[0]

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span named `name`; `after(result, args)` may add
        counters from the call's arguments and result."""
        calls, self_s, stack, clock = (
            self.calls, self.self_s, self._stack, self.clock
        )

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                stack[-1] += dur
            if after is not None:
                after(result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _compose_sizes(self, result, args):
        f, h = args[0], args[1]
        raw, out, terms = COMPOSE_COUNTERS
        c = self.counters
        c[raw] += f.degree * h.degree
        c[out] += result.degree
        c[terms] += sum(len(p.terms) for p in result.coords)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the loaded `sblinks` modules and the
        methods in METHODS.  Re-exported names (`sblinks.compose`,
        `word_algebra.compose`, ...) get the same wrapper as the original."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == "sblinks" or name.startswith("sblinks."))
            and m is not None
            and name not in SKIPPED_MODULES
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    after = None
                    if name == "birational.compose":
                        after = self._compose_sizes
                    wrappers[id(value)] = self.span(name, value, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)
        for (mod_short, cls_name, meth), (name, count_only) in METHODS.items():
            cls = getattr(sys.modules[f"sblinks.{mod_short}"], cls_name)
            original = cls.__dict__[meth]
            wrap = self.counted if count_only else self.span
            w = wrap(name, original)
            self._patched.append((cls, meth, original))
            setattr(cls, meth, w)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        layers = sorted(set(self.calls) | set(self.self_s))
        return {
            "layers": {
                n: {"calls": self.calls.get(n, 0), "self_s": self.self_s.get(n, 0.0)}
                for n in layers
            },
            "counters": dict(sorted(self.counters.items())),
        }
