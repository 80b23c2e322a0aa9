"""Layer-boundary tracing of the dppstats package with ``sys.setprofile``.

A *layer* is a module of the package (``cli``, ``variance``, ``geometry``,
``quadrature``, ``specfun``, ``counting``, ``kernels``), one of the external
layers ``numpy`` and ``scipy``, or ``bench`` for the benchmark's own code.
Code in any other module (the standard library, click) belongs to the layer
that called it.

A span is opened at every call whose callee lies in another layer than the
caller: package module to package module, package to numpy or scipy, and
back into the package from a numpy or scipy callback (a quadrature
integrand).  Calls between numpy and scipy stay inside the external span.
numpy ufuncs and array operators raise no profiler event, so their time is
self time of the layer that applied them.

Each span holds (id, parent id, layer, name, start, end).  A layer's self
time is the time its spans cover minus the time their child spans cover, so
the self times of all layers add up to the traced wall time exactly.

The same boundaries carry the per-layer counts: calls into each layer,
quadrature nodes evaluated per integrand layer and the share of them that
the final Gauss-Legendre refinement of each piece used, lens integrals,
incomplete beta calls, profile terms, pmf multiply-adds and sampler draws.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

import numpy as np

PACKAGE_LAYERS = ("cli", "variance", "geometry", "quadrature", "specfun", "counting",
                  "kernels")
EXTERNAL_LAYERS = ("numpy", "scipy")
LAYERS = ("bench",) + PACKAGE_LAYERS + EXTERNAL_LAYERS

INCOMPLETE_BETA = ("incomplete_beta", "incomplete_beta_ratio")

_UNSEEN = object()


def _package_dir(module) -> str:
    return os.path.dirname(os.path.abspath(module.__file__)) + os.sep


class Tracer:
    """Records layer spans and boundary counts for the calls it wraps.

    Spans stay in memory (compact arrays) until :meth:`write` is called.
    """

    def __init__(self, package, bench_dir: str):
        import scipy
        self._dirs = [(_package_dir(package), None), (_package_dir(np), "numpy"),
                      (_package_dir(scipy), "scipy"),
                      (os.path.abspath(bench_dir) + os.sep, "bench")]
        self.layers = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.parent = array("q")
        self.layer = array("H")
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.quad_useful_nodes = 0
        self.quad_total_nodes = 0
        self._code_info: dict = {}
        self._module_layer: dict = {}
        gl = getattr(sys.modules.get(package.__name__ + ".quadrature"),
                     "_gauss_legendre_doubling", None)
        self._gl_code = getattr(gl, "__code__", None)

    # ------------------------------------------------------------ layers

    def _layer_of_file(self, filename: str):
        path = os.path.abspath(filename)
        for prefix, layer in self._dirs:
            if path.startswith(prefix):
                if layer is None:                  # a module of the package
                    layer = os.path.splitext(path[len(prefix):])[0].replace(os.sep, ".")
                if layer not in self._layer_id:
                    self._layer_id[layer] = len(self.layers)
                    self.layers.append(layer)
                return self._layer_id[layer]
        return None

    def _code(self, code):
        info = self._code_info.get(code)
        if info is None:
            info = (self._layer_of_file(code.co_filename), code.co_qualname)
            self._code_info[code] = info
        return info

    def _c_layer(self, fn):
        module = getattr(fn, "__module__", None)
        if module is None:
            owner = getattr(fn, "__self__", None)
            module = type(owner).__module__ if owner is not None else ""
        layer = self._module_layer.get(module, _UNSEEN)
        if layer is _UNSEEN:
            top = module.split(".")[0]
            layer = self._layer_id[top] if top in EXTERNAL_LAYERS else None
            self._module_layer[module] = layer
        return layer

    def _name(self, text: str) -> int:
        idx = self._name_id.get(text)
        if idx is None:
            idx = self._name_id[text] = len(self.names)
            self.names.append(text)
        return idx

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    # ------------------------------------------------------------ tracing

    def trace(self, label: str, fn):
        """Call ``fn()`` under the profiler, as one root span named ``label``."""
        lid = self._layer_id
        bench, quadrature = lid["bench"], lid["quadrature"]
        external = {lid["numpy"], lid["scipy"]}
        no_span_from = external | {None}
        integrand_callers = external | {quadrature}
        parent, layer, name, start, end = (self.parent, self.layer, self.name,
                                           self.start, self.end)
        code_info, gl_code = self._code_info, self._gl_code
        clock = time.perf_counter
        marks: list[int] = []           # per open frame: span id, -1 none, -2 GL piece
        stack = [len(self.start)]       # open spans, innermost last
        layers_open = [bench]
        closers: dict = {}              # span id -> callable(return value)
        pieces: list[list[int]] = []    # open GL pieces: [nodes, nodes of last call]
        quad_depth = [0]

        def layer_of(code):
            info = code_info.get(code)
            return (info or self._code(code))[0]

        def open_span(lay, text):
            idx = len(start)
            parent.append(stack[-1])
            layer.append(lay)
            name.append(self._name(text))
            end.append(0.0)
            stack.append(idx)
            layers_open.append(lay)
            self._count(self.layers[lay] + ".calls")
            start.append(clock())
            return idx

        def integrand(lay, frame):
            code = frame.f_code
            n = int(np.size(frame.f_locals[code.co_varnames[0]])) if code.co_argcount else 1
            self._count(self.layers[lay] + ".integrand_nodes", n)
            if pieces:
                pieces[-1][0] += n
                pieces[-1][1] = n
            else:                       # schemes other than Gauss-Legendre use every node
                self.quad_useful_nodes += n
                self.quad_total_nodes += n

        def on_span(lay, qualname, frame, idx):
            lname = self.layers[lay]
            if lay == quadrature:
                quad_depth[0] += 1
                closers[idx] = _leave_quadrature
            elif lname == "geometry" and "lens" in qualname:
                self._count("geometry.lens_calls")
            elif lname == "specfun" and qualname in INCOMPLETE_BETA:
                self._count("specfun.incomplete_beta_calls")
            elif lname == "counting":
                self._counting(qualname, frame, idx, closers)

        def _leave_quadrature(_):
            quad_depth[0] -= 1

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                info = code_info.get(code) or self._code(code)
                lay = info[0]
                caller = layer_of(frame.f_back.f_code)
                if caller is None:
                    caller = layers_open[-1]
                if lay is None or lay == caller or lay in external and caller in external:
                    marks.append(-2 if code is gl_code else -1)
                    if code is gl_code:
                        pieces.append([0, 0])
                    return
                is_integrand = (quad_depth[0] and caller in integrand_callers
                                and lay not in integrand_callers)
                if is_integrand:
                    integrand(lay, frame)
                if caller in external:  # a callback: the external layer keeps the time
                    marks.append(-1)
                    return
                idx = open_span(lay, info[1])
                marks.append(idx)
                if not is_integrand:
                    on_span(lay, info[1], frame, idx)
            elif event == "c_call":
                lay = self._c_layer(arg)
                caller = layer_of(frame.f_code)
                if caller is None:
                    caller = layers_open[-1]
                if lay is None or lay == caller or caller in no_span_from:
                    marks.append(-1)
                else:
                    marks.append(open_span(
                        lay, getattr(arg, "__qualname__", None) or arg.__name__))
            elif marks:                                  # return, c_return, c_exception
                idx = marks.pop()
                if idx >= 0:
                    end[idx] = clock()
                    stack.pop()
                    layers_open.pop()
                    closer = closers.pop(idx, None)
                    if closer is not None:
                        closer(arg if event == "return" else None)
                elif idx == -2:
                    nodes, last = pieces.pop()
                    self.quad_useful_nodes += last
                    self.quad_total_nodes += nodes

        root = len(start)
        parent.append(-1)
        layer.append(bench)
        name.append(self._name(label))
        end.append(0.0)
        start.append(clock())
        sys.setprofile(hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            t_end = clock()
            for idx in stack[1:]:                        # spans left open by an unwind
                end[idx] = t_end
            end[root] = t_end

    def _counting(self, qualname, frame, idx, closers):
        local = frame.f_locals
        if qualname == "build_profile":
            closers[idx] = lambda profile: self._count(
                "counting.profile_terms", getattr(profile, "truncation", 0))
        elif qualname == "distribution":
            J = len(local["profile"].probabilities)
            self._count("counting.pmf_madds", J * (J + 1))
        elif qualname == "sample_counts":
            J = len(local["profile"].probabilities)
            n, chunk = int(local["n_samples"]), int(local["chunk"])
            self._count("counting.uniforms", n * J)
            block = min(n, chunk) * J * 8
            self.counts["counting.sample_bytes"] = max(
                self.counts.get("counting.sample_bytes", 0), block)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, over every span recorded so far."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        inner = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[inner], dur[inner])
        by_layer = np.bincount(np.frombuffer(self.layer, dtype=np.uint16),
                               weights=dur - child, minlength=len(self.layers))
        return {name: float(t) for name, t in zip(self.layers, by_layer)}

    def wall_time(self) -> float:
        """Total duration of the root spans: the traced wall time."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        return float(dur[np.frombuffer(self.parent, dtype=np.int64) < 0].sum())

    def __len__(self):
        return len(self.start)

    def write(self, path: str, meta: dict):
        """Write every span as JSON; layer and name are indices into tables."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [[i, p, lay, nm, round(s - t0, 9), round(e - t0, 9)]
                 for i, (p, lay, nm, s, e) in enumerate(
                     zip(self.parent, self.layer, self.name, self.start, self.end))]
        doc = {**meta, "fields": ["id", "parent", "layer", "name", "start_s", "end_s"],
               "layers": self.layers, "names": self.names, "spans": spans}
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
