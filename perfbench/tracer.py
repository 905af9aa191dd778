"""Per-layer spans and counts, recorded by wrapping the public functions of
each ``hmi`` module from outside the library.

Every public function of a layer module is replaced, in every ``hmi``
namespace that holds it, by a wrapper that opens a span when the call
crosses into the layer from another layer or from the benchmark.  Calls
inside a layer open no span, so a layer's self time is its spans' time
minus the time of the spans they cause in other layers.  ``graphs`` is not
a layer: its time counts to the layer that calls it (``hierarchy``,
``ideal``, ``simplicial``).  Counts are taken at every call, inner ones
included, because they count output, not crossings.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("partitions", "simplicial", "ideal", "hierarchy", "logdensity",
          "diffcum", "network", "nerve", "cli")

COUNTS = ("partitions.partitions_out", "simplicial.nonfaces_out",
          "ideal.generators_out", "network.cuts_out", "network.paths_out",
          "nerve.faces_out", "diffcum.density_points",
          "diffcum.density_batches")


def _count(name, size):
    def hook(tracer, out):
        tracer.counts[name] += size(out)
    return hook


HOOKS = {
    ("partitions", "enumerate_partitions"):
        _count("partitions.partitions_out", len),
    ("simplicial", "minimal_nonface_masks"):
        _count("simplicial.nonfaces_out", len),
    ("ideal", "stanley_reisner"):
        _count("ideal.generators_out", lambda I: len(I.generators)),
    ("ideal", "make_ideal"):
        _count("ideal.generators_out", lambda I: len(I.generators)),
    ("network", "minimal_cuts"): _count("network.cuts_out", len),
    ("network", "minimal_paths"): _count("network.paths_out", len),
    ("nerve", "nerve_complex"):
        lambda tracer, S: tracer.nerves.append(S.facet_sets()),
}

# densities built inside a traced call (the CLI loads them from files) get
# the same counting wrapper the benchmark puts on its own densities
DENSITIES = ("gaussian_density", "mec_density", "product_gaussian_density")


class Tracer:
    def __init__(self, tally, wrap_density):
        self.tally = tally
        self.wrap_density = wrap_density
        self.saved = []
        self.reset()

    def reset(self):
        self.stack = []
        self.spans = []
        self.job = None
        self.busy = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.nerves = []

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))
        density = layer == "diffcum" and name in DENSITIES
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                out = fn(*args, **kwargs)
                if hook:
                    hook(self, out)
                return out
            span = [layer, len(self.spans), clock(), 0.0]
            self.spans.append(None)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - span[2]
                self.busy[layer] += took - span[3]
                self.calls[layer] += 1
                parent = stack[-1][1] if stack else None
                if stack:
                    stack[-1][3] += took
                self.spans[span[1]] = (self.job, layer, name, span[2], end,
                                       parent)
            if hook:
                hook(self, out)
            if density:
                out = self.wrap_density(out, self.tally)
            return out
        return traced

    def install(self):
        import hmi
        spaces = [hmi] + [importlib.import_module(f"hmi.{m}")
                          for m in LAYERS + ("graphs",)]
        for layer in LAYERS:
            module = importlib.import_module(f"hmi.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            self.saved.append((space, attr, fn))
                            setattr(space, attr, wrapper)

    def uninstall(self):
        for space, attr, fn in reversed(self.saved):
            setattr(space, attr, fn)
        self.saved = []

    def pass_stats(self, faces_count):
        """Per-layer busy time and calls plus counts for the pass since the
        last reset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        out["nerve.faces_out"] = sum(faces_count(f) for f in self.nerves)
        out["diffcum.density_points"] = self.tally.points
        out["diffcum.density_batches"] = self.tally.batches
        return out
