"""Per-layer spans and counts for the traced run.

The tracer wraps public functions of each ttolab module from outside the
package: every module attribute that refers to a wrapped function is
replaced for the duration of the traced run and restored afterwards.
Each wrapped call records a span (name, start, end, parent, round) in
memory; counts come from the call's arguments and return value.  The
per-layer metrics are computed from the spans when the run ends.
"""
from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "harmonic.quad_calls": "count",
    "harmonic.quad_levels": "count",
    "harmonic.quad_nodes": "count",
    "harmonic.quad_final_m_max": "count",
    "harmonic.quad_self_s": "s",
    "modelspace.basis_builds": "count",
    "modelspace.basis_s": "s",
    "modelspace.sample_evals": "count",
    "modelspace.sample_self_s": "s",
    "truncops.toeplitz_builds": "count",
    "truncops.toeplitz_s": "s",
    "truncops.hankel_builds": "count",
    "truncops.hankel_s": "s",
    "truncops.standard_symbol_s": "s",
    "spectra.eig_s": "s",
    "spectra.svd_s": "s",
    "spectra.cluster_s": "s",
    "clark.solves": "count",
    "clark.solve_s": "s",
    "clark.cross_route_s": "s",
    "nehari.gap_s": "s",
    "nehari.dual_s": "s",
    "nehari.starts": "count",
    "nehari.stagnant_starts": "count",
    "nehari.certificate_s": "s",
    "nehari.certificate_iterations": "count",
    "besov.profile_s": "s",
    "besov.generations": "count",
}


class _NodeCounter:
    """Stands in for the per-node integrand handed to a quadrature call.

    Every refinement level samples the m-th roots of unity starting at
    the root 1 (in one block, or in chunks of which only the first starts
    there), so a block whose first node is exactly 1 opens a new level.
    """

    def __init__(self, sample):
        self.sample = sample
        self.levels = 0
        self.nodes = 0
        self.level_m = 0

    def __call__(self, nodes):
        size = int(np.size(nodes))
        if size and complex(np.ravel(nodes)[0]) == 1.0:
            self.levels += 1
            self.level_m = 0
        self.level_m += size
        self.nodes += size
        return self.sample(nodes)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, round]
        self.counts = defaultdict(lambda: defaultdict(float))   # round -> name -> value
        self.active = False
        self.round = 0
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ spans

    def _span(self, name, fn, args, kwargs, on_return=None):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.round]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        if on_return is not None:
            on_return(result)
        return result

    def count(self, name, value=1):
        self.counts[self.round][name] += value

    def _wrap(self, name, fn, calls=None, counter=None):
        """Wrapper recording a span.  The count `calls` goes up on every
        call, also one that raises; counter(result) adds counts from a
        returned value."""

        def wrapper(*args, **kwargs):
            if self.active and calls is not None:
                self.count(calls)
            return self._span(name, fn, args, kwargs, counter)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_quadrature(self, name, fn, sample_arg):
        """Wrapper for an adaptive quadrature entry point: counts levels,
        sampled nodes and the final grid through the integrand argument,
        for calls that succeed and for calls that raise."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            integrand = _NodeCounter(bound.arguments[sample_arg])
            bound.arguments[sample_arg] = integrand
            try:
                return self._span(name, fn, bound.args, bound.kwargs)
            finally:
                self.count("harmonic.quad_calls")
                self.count("harmonic.quad_levels", integrand.levels)
                self.count("harmonic.quad_nodes", integrand.nodes)
                top = self.counts[self.round]
                top["harmonic.quad_final_m_max"] = max(top["harmonic.quad_final_m_max"],
                                                       integrand.level_m)

        wrapper.__wrapped__ = fn
        return wrapper

    # --------------------------------------------------------- patching

    def install(self):
        """Replace the traced functions in every loaded ttolab module."""
        import numpy.linalg

        from ttolab import (besov, clark, harmonic, modelspace, nehari, spectra,
                            truncops)

        targets = [
            (harmonic, "adaptive_boundary_mean",
             self._wrap_quadrature("harmonic.quad", harmonic.adaptive_boundary_mean, "sample")),
            (harmonic, "matrix_integral",
             self._wrap_quadrature("harmonic.quad", harmonic.matrix_integral, "col_sample")),
            (modelspace, "build_basis",
             self._wrap("modelspace.basis", modelspace.build_basis,
                        calls="modelspace.basis_builds")),
            (modelspace, "tm_samples",
             self._wrap("modelspace.sample", modelspace.tm_samples,
                        counter=lambda r: self.count("modelspace.sample_evals", r.size))),
            (truncops, "toeplitz_matrix",
             self._wrap("truncops.toeplitz", truncops.toeplitz_matrix,
                        calls="truncops.toeplitz_builds")),
            (truncops, "hankel_matrix",
             self._wrap("truncops.hankel", truncops.hankel_matrix,
                        calls="truncops.hankel_builds")),
            (truncops, "standard_symbol",
             self._wrap("truncops.standard_symbol", truncops.standard_symbol)),
            (spectra, "_single_linkage", self._wrap("spectra.cluster", spectra._single_linkage)),
            (clark, "clark_measure",
             self._wrap("clark.solve", clark.clark_measure, calls="clark.solves")),
            (clark, "cross_route_equivalence",
             self._wrap("clark.cross_route", clark.cross_route_equivalence)),
            (nehari, "nehari_gap", self._wrap("nehari.gap", nehari.nehari_gap)),
            (nehari, "dual_distance",
             self._wrap("nehari.dual", nehari.dual_distance, counter=self._count_starts)),
            (nehari, "minimax_certificate",
             self._wrap("nehari.certificate", nehari.minimax_certificate,
                        counter=lambda r: self.count("nehari.certificate_iterations",
                                                     r.iterations))),
            (besov, "besov_profile",
             self._wrap("besov.profile", besov.besov_profile,
                       counter=lambda r: self.count("besov.generations",
                                                    len(r.generation_sums)))),
        ]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ttolab" or n.startswith("ttolab.")]
        for home, attr, wrapper in targets:
            original = getattr(home, attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapper)
        # dense linear algebra: ttolab calls these through the numpy.linalg namespace
        for attr, name in (("eigvals", "spectra.eig"), ("svd", "spectra.svd")):
            original = getattr(numpy.linalg, attr)
            self._restore.append((numpy.linalg, attr, original))
            setattr(numpy.linalg, attr, self._wrap(name, original))

    def uninstall(self):
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def _count_starts(self, report):
        self.count("nehari.starts", report.starts)
        self.count("nehari.stagnant_starts", report.stagnant_starts)

    # ---------------------------------------------------------- metrics

    def round_metrics(self, rnd: int) -> dict:
        """Per-layer metrics of one round from its spans and counts."""
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for span in self.spans:
            if span[4] != rnd:
                continue
            duration = span[2] - span[1]
            inclusive[span[0]] += duration
            own[span[0]] += duration
            if span[3] >= 0:
                own[self.spans[span[3]][0]] -= duration
        counts = self.counts[rnd]
        times = {
            "harmonic.quad_self_s": own["harmonic.quad"],
            "modelspace.basis_s": inclusive["modelspace.basis"],
            "modelspace.sample_self_s": own["modelspace.sample"],
            "truncops.toeplitz_s": inclusive["truncops.toeplitz"],
            "truncops.hankel_s": inclusive["truncops.hankel"],
            "truncops.standard_symbol_s": inclusive["truncops.standard_symbol"],
            "spectra.eig_s": inclusive["spectra.eig"],
            "spectra.svd_s": inclusive["spectra.svd"],
            "spectra.cluster_s": inclusive["spectra.cluster"],
            "clark.solve_s": inclusive["clark.solve"],
            "clark.cross_route_s": inclusive["clark.cross_route"],
            "nehari.gap_s": inclusive["nehari.gap"],
            "nehari.dual_s": inclusive["nehari.dual"],
            "nehari.certificate_s": inclusive["nehari.certificate"],
            "besov.profile_s": inclusive["besov.profile"],
        }
        return {name: times[name] if name in times else counts[name]
                for name in LAYER_METRICS}

    def layer_metrics(self, rounds: int) -> dict:
        """Median over rounds of each per-round layer metric."""
        per_round = [self.round_metrics(r) for r in range(rounds)]
        return {name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
                for name, unit in LAYER_METRICS.items()}

    def write(self, path: Path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(meta)
        payload["span_names"] = names
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "round"]
        payload["spans"] = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps(payload))
