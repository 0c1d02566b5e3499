"""Outside-in span recorder for gazestab's public functions.

The tracer changes no program file.  It replaces each public function in
every gazestab module namespace that binds it -- the name its caller looks
up at call time -- with a wrapper that records one span: name, start, end
and the span that was open when it was called.  Because
`stabilizer.fixation_full_jacobian` is the same function object as
`stereo.fixation_full_jacobian`, the nested calls from `estimate_kff` and
`compensate` are counted under one name.

Spans live in flat integer arrays while the benchmark runs and are written
out once at the end.  A layer's self time is its span time minus the time
of its direct child spans.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import math
import time

import numpy as np

LAYERS = ("chain", "stereo", "stabilizer", "simulator", "fileio", "cli")

# Elementary conversions called 50-250 times per tick: a span would cost as
# much as the call itself.  Their time is part of their callers' self time.
LEAF_HELPERS = frozenset({"chain.dh_matrix", "chain.as_joint_array"})


def public_functions() -> dict:
    """label -> function for every public module-level function of LAYERS,
    plus the script realisation method."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"gazestab.{layer}")
        for name, val in vars(mod).items():
            label = f"{layer}.{name}"
            if (
                not name.startswith("_")
                and inspect.isfunction(val)
                and val.__module__ == mod.__name__
                and label not in LEAF_HELPERS
            ):
                out[label] = val
    from gazestab.simulator import DisturbanceScript

    out["simulator.realize"] = DisturbanceScript.realize
    return out


REFERENCE = "perfbench.reference"
# Scaled times are host times multiplied by REFERENCE_MS / (the kernel's
# time beside them).  The constant is the kernel's median time when
# interleaved with the control loop on a 2.1 GHz Xeon vCPU; it fixes the
# unit, and only ratios between commits measured alike carry meaning.
REFERENCE_MS = 0.22
_M = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4)
_A = np.array([0.1, 0.2, 0.3])
_B = np.array([0.3, -0.1, 0.7])


def reference_kernel():
    """Fixed CPU work shaped like the control loop's: 4x4 transforms built
    from Python floats and chained, 3-vector cross products and float
    extraction.  It is timed beside the program so that host-speed drift can
    be divided out."""
    T = np.eye(4)
    x = 0.0
    for i in range(6):
        c, s = math.cos(0.1 * i), math.sin(0.1 * i)
        T = T @ np.array([[c, -s, 0.0, 0.05], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.03], [0.0, 0.0, 0.0, 1.0]]) @ _M
        x += float(np.cross(T[:3, 2], _B) @ _A)
    return T, x


def install_timing(tracer: Tracer) -> None:
    """The untraced pass: one span per run, and before every plant step one
    reference-kernel span, which also marks where each tick starts."""
    from gazestab import simulator

    tracer.install({"simulator.run_experiment": simulator.run_experiment})
    reference = tracer.wrap(REFERENCE, reference_kernel)
    step = simulator.step

    def step_after_reference(*args, **kwargs):
        reference()
        return step(*args, **kwargs)

    tracer.patch(simulator, "step", step_after_reference)


class Tracer:
    """Installs span wrappers, records spans, removes the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._patches: list = []

    def wrap(self, label: str, fn):
        """A span-recording wrapper around fn (not installed anywhere)."""
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    def install(self, functions: dict) -> None:
        """Wrap each function at every gazestab binding of it."""
        import sys

        wrappers = {id(fn): (fn, self.wrap(label, fn)) for label, fn in functions.items()}
        modules = [m for name, m in list(sys.modules.items()) if name == "gazestab" or name.startswith("gazestab.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self.patch(mod, attr, hit[1])
        from gazestab.simulator import DisturbanceScript

        hit = wrappers.get(id(DisturbanceScript.realize))
        if hit is not None:
            self.patch(DisturbanceScript, "realize", hit[1])

    def patch(self, owner, attr: str, new) -> None:
        """Set owner.attr until uninstall() (patches are undone in reverse)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    def __len__(self) -> int:
        return len(self.start)

    def spans(self, lo: int = 0, hi: int | None = None) -> "Spans":
        hi = len(self) if hi is None else hi
        return Spans(self.names, self.name_id[lo:hi], self.parent[lo:hi], self.start[lo:hi], self.end[lo:hi], lo)


class Spans:
    """A closed slice of the span record, as numpy arrays, with self times."""

    def __init__(self, names, name_id, parent, start, end, offset):
        self.names = list(names)
        self.name_id = np.array(name_id, dtype=np.int32)
        self.parent = np.array(parent, dtype=np.int64) - offset
        self.start = np.array(start, dtype=np.int64)
        self.end = np.array(end, dtype=np.int64)
        self.dur = self.end - self.start
        inside = self.parent >= 0
        child = np.zeros(len(self.dur), dtype=np.int64)
        np.add.at(child, self.parent[inside], self.dur[inside])
        self.self_ns = self.dur - child

    def ids(self, label: str) -> np.ndarray:
        """Indices of the spans with this name."""
        if label not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name_id == self.names.index(label))[0]

    def subtree(self, i: int) -> slice:
        """Span i and its descendants: spans nest, so they are contiguous."""
        return slice(i, int(np.searchsorted(self.start, self.end[i], side="left")))

    def write_csv_gz(self, path: str) -> None:
        """One row per span; `trace` is the outermost span it ran under."""
        roots = np.nonzero(self.parent < 0)[0]
        trace = roots[np.searchsorted(roots, np.arange(len(self.dur)), side="right") - 1]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,trace,parent,name,start_ns,end_ns,self_ns\n")
            for k in range(len(self.dur)):
                fh.write(
                    f"{k},{trace[k]},{self.parent[k]},{self.names[self.name_id[k]]},"
                    f"{self.start[k]},{self.end[k]},{self.self_ns[k]}\n"
                )
