"""Per-layer call counts and self time, recorded from outside the program.

The tracer wraps the public functions of each ddcp module and rebinds every
name that refers to them, in every ddcp module: `from .x import f` copies
the function into the importing module, so patching only the defining module
would miss those calls.  Classes are timed through `__init__`, which keeps
`isinstance` and the class identity intact.  A layer's self time is its
wall time minus the time of the wrapped calls it made; the wrappers read
perf_counter, which costs less than the host clock, and `metrics` converts
the sums to host-clock seconds by the traced unit's ratio of the two.  A
listed name that a module lacks is recorded in `missing`, and the run counts
that as a failure rather than report a silent zero.  Nothing under src/ is
changed; `uninstall` restores every binding.
"""

import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# The layers are the modules of the package; cli is left unmeasured.
LAYERS = {
    "exactmat": ["rref", "solve", "nullspace"],
    "quiver": ["space_dim"],
    "reps": ["kernel", "image", "cokernel", "interval_decompose", "RepMorphism"],
    "derived": ["cone", "lift_chain", "to_chain", "graded_hom"],
    "endalg": [
        "end_of",
        "SCAlgebra",
        "SCModule",
        "is_hereditary",
        "is_linear_A",
        "module_generators",
    ],
    "approx": ["hom_module", "min_left_approx_sequence"],
    "deciders": [
        "check_module_dcp",
        "check_tilting_module",
        "check_ddcp",
        "check_ddcp_derived",
        "check_tilting_complex",
    ],
    "classify": ["enumerate_and_classify"],
}

FUNNEL = ["cliques", "normalised", "end_An", "survivors"]

_MISSING = object()


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer, names in LAYERS.items():
        for name in names:
            spec.append(("%s.%s.calls" % (layer, name), "count", "lower"))
            spec.append(("%s.%s.self_s" % (layer, name), "s", "lower"))
    spec.append(("deciders.not_applicable", "count", "lower"))
    spec += [("classify.%s" % k, "count", "higher") for k in FUNNEL]
    spec += [
        ("classify.survivor_ratio", "ratio", "higher"),
        ("endalg.end_of.per_object", "ratio", "lower"),
        ("approx.solve_per_approx", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return spec


class Tracer:
    def __init__(self):
        self.missing = []
        self.calls = Counter()
        self.self_s = Counter()
        self.not_applicable = 0
        self.funnel = Counter()
        self._child = [0.0]  # wrapped time spent inside the current frame
        self._undo = []

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "ddcp" or name.startswith("ddcp.")
        ]
        for layer, names in LAYERS.items():
            module = sys.modules.get("ddcp." + layer)
            for name in names:
                key = "%s.%s" % (layer, name)
                obj = getattr(module, name, None)
                if obj is None:
                    self.missing.append(key)
                    continue
                if isinstance(obj, type):
                    self._patch(obj, "__init__", self._timed(key, obj.__init__))
                    continue
                after = self._note_applicable if layer == "deciders" else None
                wrapper = self._timed(key, obj, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, attr, wrapper)
        classify = sys.modules.get("ddcp.classify")
        self._hook(classify, "_clique_candidates", self._note_cliques)
        self._hook(classify, "is_linear_A", self._note_linear)
        self._hook(classify, "check_ddcp", self._note_survivor)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _timed(self, key, fn, after=None):
        child = self._child
        calls = self.calls
        self_s = self.self_s

        @wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                self_s[key] += dt - inner
                calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hook(self, module, attr, after):
        """Observe a name classify calls, to count its funnel."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append("classify.%s" % attr)
            return

        @wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        self._patch(module, attr, hooked)

    def _note_applicable(self, args, report):
        if not getattr(report, "applicable", True):
            self.not_applicable += 1

    def _note_cliques(self, args, cliques):
        self.funnel["cliques"] += len(cliques)

    def _note_linear(self, args, m):
        self.funnel["normalised"] += 1
        if m is not None and m == len(args[0].idempotents):
            self.funnel["end_An"] += 1

    def _note_survivor(self, args, report):
        if report:
            self.funnel["survivors"] += 1

    def metrics(self, objects, overhead_frac, host_per_raw):
        """Every per-layer metric, as {name: value}; host_per_raw converts
        perf_counter seconds to host-clock seconds."""
        out = {}
        for layer, names in LAYERS.items():
            for name in names:
                key = "%s.%s" % (layer, name)
                out[key + ".calls"] = self.calls[key]
                out[key + ".self_s"] = self.self_s[key] * host_per_raw
        out["deciders.not_applicable"] = self.not_applicable
        for k in FUNNEL:
            out["classify." + k] = self.funnel[k]
        normalised = self.funnel["normalised"]
        approx = self.calls["approx.min_left_approx_sequence"]
        out["classify.survivor_ratio"] = (
            self.funnel["survivors"] / normalised if normalised else 0.0
        )
        out["endalg.end_of.per_object"] = self.calls["endalg.end_of"] / objects
        out["approx.solve_per_approx"] = (
            self.calls["exactmat.solve"] / approx if approx else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return out
