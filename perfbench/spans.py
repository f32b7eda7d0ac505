"""Span tracing from outside the library.

The tracer wraps every public function of the cubiclat modules, the
public methods of their public classes, and the constructors and
arithmetic operators of those classes.  Because the library imports
names with ``from .x import ...``, one function can sit under several
module attributes (``fourfold.vectors_of_norm`` is the same object as
``enumeration.vectors_of_norm``); every such binding is replaced, so no
call bypasses its span.  ``uninstall`` puts every original back.

Spans (name, parent, start, end) are kept in flat arrays while the run
lasts and written out only when it ends.  Work counts are read from the
return values and arguments of the wrapped calls: the library itself has
no counters yet.
"""

import inspect
import time
from array import array
from collections import Counter, defaultdict

# dunder methods that are part of a class's public behaviour
TRACED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__neg__"})

MARK = "__perfbench_span__"


WORK_KEYS = ("enumeration.vectors", "discgroup.group_elements", "detrep.points_scanned", "forms.det_terms")


def _count_vectors(result, args):
    return "enumeration.vectors", len(result)


def _count_group(result, args):
    return "discgroup.group_elements", args[0].order


def _count_points(result, args):
    return "detrep.points_scanned", result.points_scanned


def _count_det_terms(result, args):
    return "forms.det_terms", len(result.coeffs)


WORK_COUNTERS = {
    "enumeration.vectors_of_norm": _count_vectors,
    "discgroup.milgram_signature": _count_group,
    "detrep.smooth_plane_curve_fp": _count_points,
    "detrep.smooth_fourfold_fp": _count_points,
    "detrep.det_form_matrix": _count_det_terms,
}


def library_modules(lib_name="cubiclat"):
    """The imported modules of the package, the package itself included."""
    import sys

    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == lib_name or name.startswith(lib_name + "."))
    ]


def installed_wrappers(modules):
    """Names of every attribute that still holds a span wrapper."""
    found = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    inner = getattr(val, "__func__", val)
                    if getattr(inner, MARK, False):
                        found.append(f"{mod.__name__}.{obj.__name__}.{attr}")
    return found


class Tracer:
    def __init__(self, modules, precondition_error):
        self.modules = modules
        self.precondition_error = precondition_error
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.failed = Counter()
        self.work = Counter()
        self._last_failure = None
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        count = WORK_COUNTERS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        precondition_error = self.precondition_error
        tracer = self

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except precondition_error as exc:
                # count a failure once, in the layer that raised it
                if exc is not tracer._last_failure:
                    tracer._last_failure = exc
                    tracer.failed[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                key, amount = count(result, args)
                tracer.work[key] += amount
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        setattr(span, MARK, True)
        return span

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.partition(".")[2]
            if not layer:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, f"{layer}.{name}")
        # rebind every module attribute that holds a wrapped function,
        # including re-exports in the package and in sibling modules
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _install_class(self, cls, prefix):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self._wrap(val.__func__, name)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: calls and self time (duration minus child spans)."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def write(self, path):
        """One line per span: id, parent id, name, start and end in ns from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{round((self.span_start[i] - t0) * 1e9)}\t{round((self.span_end[i] - t0) * 1e9)}\n"
                )
