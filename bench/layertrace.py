"""Outside-in span tracer for the wschebor layers.

`Tracer.install` wraps, from outside the package:

- every public function a layer module defines, in every ``wschebor``
  namespace that binds it, so calls through ``from ... import`` names are
  seen too;
- the public methods, constructor and call operator of every class a
  layer module defines (patched on the class, so every binding sees them);
- every ``cli.EXPERIMENTS`` entry, as the span ``experiment:<name>``.

Private names are left alone: they are the code later optimisations
rewrite.  Callables kept in private registries or instance fields (kernel
factories, density closures) are not wrapped; their time is the caller's
self time.  `uninstall` puts every original back.

One span is recorded per call: name, layer, start, end, parent span,
thread and pass id.  Each thread keeps its own parent stack.  A span that
starts on a thread with an empty stack, other than the installing thread,
takes as parent the innermost open span of the installing thread: this is
the `run_replicas` call waiting on its pool.  Spans stay in memory until
the caller writes them out.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("paths", "mollifiers", "increments", "measures", "spectral", "ldp",
          "levelproc", "discrete", "cli")
_PUBLIC_DUNDERS = ("__init__", "__call__")


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "thread",
                 "pass_id", "error", "count", "tag")

    def __init__(self, sid, name, layer, parent, thread, pass_id):
        self.sid, self.name, self.layer = sid, name, layer
        self.parent, self.thread, self.pass_id = parent, thread, pass_id
        self.start = self.end = 0.0
        self.error = False
        self.count = None
        self.tag = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _values_size(result):
    """Output nodes of an increments call: a GridPath or an IncrementProcess."""
    values = getattr(result, "values", None)
    values = getattr(values, "values", values)
    return int(getattr(values, "size", 0))


def _counter(layer, name):
    """fn(args, result) giving the work one call does, or None when not counted."""
    if name in ("EmpiricalMeasure.__init__", "EmpiricalMeasure.integrate"):
        return lambda args, result: int(args[0].points.size)
    if name == "bessel_k0":
        return lambda args, result: int(getattr(args[0], "size", 1))
    if name == "extract_cloud":
        return lambda args, result: int(result.t_count)
    if layer == "paths" and name.startswith("simulate"):
        return lambda args, result: len(result.values)
    if layer == "increments":
        return lambda args, result: _values_size(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = None
        self._restore = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer):
        tracer = self
        counter = _counter(layer, name)
        # `run` spans carry their experiment, for the cli.<experiment>.wall_s metrics.
        tag_experiment = layer == "cli" and name == "run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._owner_stack and tracer._owner_stack:
                parent = tracer._owner_stack[-1]
            else:
                parent = None
            span = Span(next(tracer._ids), name, layer, parent,
                        threading.get_ident(), tracer.pass_id)
            if tag_experiment:
                span.tag = args[0].experiment
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.count = counter(args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every public callable of the layers; see the module docstring."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._owner_stack = self._stack()
        cli = sys.modules["wschebor.cli"]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"wschebor.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, layer))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "wschebor"
                                      or module_name.startswith("wschebor.")):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._restore.append((namespace.__setitem__, name, obj))
                    namespace[name] = pair[1]
        for key, entry in list(cli.EXPERIMENTS.items()):
            fn, description = entry
            self._restore.append((cli.EXPERIMENTS.__setitem__, key, entry))
            cli.EXPERIMENTS[key] = (self._wrap(fn, f"experiment:{key}", "cli"), description)

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue
            self._restore.append((functools.partial(setattr, cls), attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        """Put back every original binding, in reverse order of wrapping."""
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)
        self._owner_stack = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - _union_length(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def _outermost(spans, by_id, names):
    """Spans named in `names` with no ancestor named in `names`."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans, wall_s, experiments):
    """Per-layer metrics of one traced pass; see NOTES.md for each name."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def entry(s):
        p = by_id.get(s.parent)
        return p is None or p.layer != s.layer or p.thread != s.thread

    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.busy_s"] = sum(s.duration for s in mine if entry(s))
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in mine)
        m[f"{layer}.errors"] = sum(1 for s in mine if s.error and entry(s))

    def entry_count(layer):
        return sum(s.count or 0 for s in spans if s.layer == layer and not s.error and entry(s))

    def count(name):
        return sum(s.count or 0 for s in spans if s.name == name)

    def timed(*names):
        return sum(s.duration for s in _outermost(spans, by_id, set(names)))

    m["paths.nodes"] = entry_count("paths")
    m["increments.out_nodes"] = entry_count("increments")
    m["measures.points_built"] = count("EmpiricalMeasure.__init__")
    m["measures.integrate_points"] = count("EmpiricalMeasure.integrate")
    m["measures.dbl_s"] = timed("dbl_distance")
    m["measures.ks_s"] = timed("ks_distance", "ks_two_sample")
    m["mollifiers.k0_points"] = count("bessel_k0")
    m["mollifiers.k0_s"] = timed("bessel_k0")
    m["spectral.cov_s"] = timed("covariance_from_density")
    m["ldp.lmg_calls"] = sum(1 for s in spans if s.name == "log_moment_generating")
    m["levelproc.snapshots"] = count("extract_cloud")

    runs = [s for s in spans if s.layer == "cli" and s.name == "run"]
    inner = defaultdict(float)
    for s in spans:
        if s.name.startswith("experiment:") and s.parent is not None:
            inner[s.parent] += s.duration
    m["cli.write_s"] = sum(s.duration - inner[s.sid] for s in runs)
    m["cli.parallelism"] = sum(selfs.values()) / wall_s if wall_s > 0 else 0.0
    for name in experiments:
        m[f"cli.{name}.wall_s"] = sum(s.duration for s in runs if s.tag == name)
    return m
