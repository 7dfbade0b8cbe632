"""Spans around the public functions of each `wedgehull` layer.

The tracer wraps a function by rebinding every module-level name under
which a `wedgehull` module holds it, so calls made through the importing
module's globals (`experiments.facets_projected`, `hull.gnomonic_project`,
`sampling.wedge_contains`, ...) are seen as well as direct ones.  Nothing in
the package's source changes.  A span is `[name, start, end, parent, info]`
with times on the monotonic clock and `parent` the index of the enclosing
span (-1 at top level); the program is single-threaded when traced, so
spans nest as a call stack.  The tracer also keeps its own clock of the time
during which no span is open, so the time no layer accounts for is measured
rather than derived from the spans.
"""

import importlib
import sys
import time

# (module, attribute, kind of extra info recorded on the span)
TARGETS = (
    ("experiments", "run_experiment", None),
    ("experiments", "summarize", None),
    ("experiments", "fit_slope", None),
    ("experiments", "write_csv", None),
    ("experiments", "write_summary", None),
    ("sampling", "sample_uniform_wedge", "points_out"),
    ("sampling", "sample_poisson_wedge", "points_out"),
    ("sampling", "sample_uniform_sphere", "points_out"),
    ("geometry", "gnomonic_project", None),
    ("geometry", "orthonormal_complement", None),
    ("geometry", "wedge_contains", None),
    ("geometry", "WedgeModel.right_angle", None),
    ("geometry", "WedgeModel.half_sphere", None),
    ("geometry", "WedgeModel.from_normals", None),
    ("hull", "facets_projected", "hull"),
    ("hull", "facets_ambient", "hull"),
    ("formulas", "estimate_A_d", None),
    ("formulas", "parallelotope_volume", "stacks"),
    ("oracles", "mc_cap_measure", None),
    ("oracles", "mc_I1", None),
    ("oracles", "subsphere_wedge_points", None),
    ("oracles", "quadrature_I1_dim2", None),
    ("oracles", "binomial_limit_integrand_value", None),
    ("suites", "run_suites", None),
    ("suites", "suite_geometry", None),
    ("suites", "suite_i2", None),
    ("suites", "suite_i1", None),
    ("suites", "suite_appendix", None),
    ("suites", "suite_limits", None),
    ("suites", "suite_hull", None),
)


def _info(kind, args, out, exc):
    if kind == "points_out":
        return None if out is None else len(out)
    if kind == "hull":
        flagged = exc is not None or bool(out.degenerate_flag)
        return [len(args[0]), flagged]
    if kind == "stacks":
        v = args[0]
        return v.size // (v.shape[-1] * v.shape[-2])
    return None


class Tracer:
    """Collects spans in memory; `install` patches the loaded package."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.idle_s = 0.0
        self._idle_since = None

    def start_idle_clock(self):
        """Start counting the time outside every span (at the program's first call)."""
        self._idle_since = time.monotonic()

    def stop_idle_clock(self):
        if self._idle_since is not None:
            self.idle_s += time.monotonic() - self._idle_since
            self._idle_since = None

    def wrap(self, name, func, kind):
        tracer, spans, stack = self, self.spans, self._stack

        def call(*args, **kwargs):
            if not stack:
                tracer.stop_idle_clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            out = exc = None
            span[1] = time.monotonic()
            try:
                out = func(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = time.monotonic()
                stack.pop()
                if not stack:
                    tracer.start_idle_clock()
                if kind is not None:
                    span[4] = _info(kind, args, out, exc)

        return call

    def install(self):
        loaded = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "wedgehull"]
        for module_name, attr, kind in TARGETS:
            module = importlib.import_module(f"wedgehull.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                func = cls.__dict__[method].__func__
                setattr(cls, method, classmethod(self.wrap(name, func, kind)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, kind)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def _noop():
    return None


def span_cost(calls=20000):
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    wrapped = Tracer().wrap("probe", _noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_self_times(spans):
    """Self time summed per layer, the module part of each span's name."""
    layers = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers
