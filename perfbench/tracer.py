"""Span tracer for the traced benchmark run, plus the per-layer metric table.

`Tracer.install` wraps every public function of each mfou layer module in the
module that defines it and in every mfou module that imported it by name, and
wraps `RandomStream.generator` on its class. Each call records one span
(id, parent id, request id, name, start, end, excluded seconds, error flag) in
memory; `write` dumps them when the run ends. Hooks registered per span name
run after the span has closed, and their time is excluded from every span that
is still open, so reference checks never count as layer time.

`Tracer.metrics` computes the per-layer metrics. Their names, units and
better-directions are declared once, in BENCHMARK.json; this module adds only
what that file lacks, the span each metric is tied to and the workloads that
must call it (the missing-layer guard). It imports no numpy or mfou code at
import time, so the parent benchmark process can import it without loading
either.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
import time

LAYERS = ("numerics", "paths", "transform", "inference", "riccati", "ldp", "experiments", "cli")

TAIL, CGF, KERNEL = "tail-study", "cgf-routes", "kernel-cli"
ALL = (TAIL, CGF, KERNEL)

MISSING = "missing"

# horizon indices checked against a dense reference in every built kernel;
# the seed interpolates columns above 1024, so the 1025..1027 ones show it
_REF_COLUMNS = (1, 2, 1025, 1026, 1027)


class Tracer:
    """In-memory span recorder; one per traced process, single-threaded."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.wrapped = set()
        self.excluded = 0.0
        self._stack = []
        self._next_id = 0
        self._restore = []
        self._t0 = time.perf_counter()
        self.hooks = {
            "paths.sample_state_batch": self._on_sample,
            "transform.build_kernel": self._on_kernel,
            "riccati.k_T_via_riccati": self._on_k_riccati,
            "riccati.k_T_via_liouville": self._on_k_liouville,
            "riccati.solve_M_equation": self._on_m_equation,
            "ldp.empirical_cgf": self._on_empirical_cgf,
            "cli.main": self._on_main,
        }
        self.sample_reps = 0
        self.max_cells = 0
        self.kernel_ref_err = 0.0
        self.liouville_failed = 0
        self.k_riccati = {}
        self.k_liouville = {}
        self.mc = {}
        self.trace_bound_max = -math.inf
        self.ess_frac = math.inf
        self.empirical_reps = 0
        self.command_s = {}

    # -- installation -------------------------------------------------------

    def wrap(self, name, fn):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            excluded0 = self.excluded
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    (sid, parent, self.request, name, start, end, self.excluded - excluded0, failed)
                )
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    seconds = end - start - (self.excluded - excluded0)
                    hook_start = time.perf_counter()
                    hook(bound.arguments, None if failed else result, failed, seconds)
                    self.excluded += time.perf_counter() - hook_start
            return result

        self.wrapped.add(name)
        return traced

    def install(self):
        """Patch every public layer function and RandomStream.generator."""
        modules = {layer: importlib.import_module(f"mfou.{layer}") for layer in LAYERS}
        mfou_modules = [
            mod for key, mod in list(sys.modules.items()) if key == "mfou" or key.startswith("mfou.")
        ]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for holder in mfou_modules:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, obj))
        stream_cls = getattr(modules["numerics"], "RandomStream", None)
        original = getattr(stream_cls, "generator", None)
        if original is not None:
            stream_cls.generator = self.wrap("numerics.generator", original)
            self._restore.append((stream_cls, "generator", original))

    def uninstall(self):
        for holder, key, obj in reversed(self._restore):
            setattr(holder, key, obj)
        self._restore.clear()

    # -- hooks: reference checks and counts, outside every span -------------

    def _on_sample(self, arguments, result, failed, seconds):
        rep_ids = arguments.get("rep_ids")
        if hasattr(rep_ids, "__len__"):
            self.sample_reps += len(rep_ids)

    def _on_kernel(self, arguments, kernel, failed, seconds):
        grid = arguments.get("grid")
        if grid is not None:
            self.max_cells = max(self.max_cells, int(grid.cells))
        if kernel is not None:
            self.kernel_ref_err = max(
                self.kernel_ref_err, kernel_reference_error(arguments["hurst"], grid, kernel.matrix)
            )

    def _on_k_riccati(self, arguments, value, failed, seconds):
        run = arguments.get("run")
        if value is not None and run is not None:
            self.k_riccati[(float(run.mu), float(run.times[-1]))] = float(value)

    def _on_k_liouville(self, arguments, value, failed, seconds):
        if failed:
            self.liouville_failed += 1
            return
        qv = arguments["qv"]
        horizon = arguments.get("horizon")
        horizon = float(qv.grid.horizon if horizon is None else horizon)
        self.k_liouville[(float(arguments["mu"]), horizon)] = float(value)

    def _on_m_equation(self, arguments, run, failed, seconds):
        if run is not None:
            self.trace_bound_max = max(self.trace_bound_max, float(run.trace_bound_max))

    def _on_empirical_cgf(self, arguments, est, failed, seconds):
        if est is None:
            return
        reps = int(arguments["reps"])
        self.empirical_reps += reps
        self.ess_frac = min(self.ess_frac, float(est.ess) / reps)
        key = (-float(arguments["b"]), float(arguments["spec"].grid.horizon))
        self.mc[key] = (float(est.value), float(est.stderr))

    def _on_main(self, arguments, rc, failed, seconds):
        argv = list(arguments.get("argv") or ())
        command = argv[0] if argv else "?"
        self.command_s[command] = self.command_s.get(command, 0.0) + seconds

    # -- results ------------------------------------------------------------

    def span_stats(self):
        """{name: [calls, inclusive seconds, self seconds]}; excluded hook time removed."""
        child_s = {}
        stats = {}
        # spans close children-first, so each parent sees all its children's time
        for sid, parent, _, name, start, end, excluded, _ in self.spans:
            duration = end - start - excluded
            child_s[parent] = child_s.get(parent, 0.0) + duration
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s.pop(sid, 0.0)
        return stats

    def _route_gap(self):
        gaps = [
            abs(value - self.k_liouville[key])
            for key, value in self.k_riccati.items()
            if key in self.k_liouville
        ]
        return max(gaps) if gaps else 0.0

    def _mc_z(self):
        worst = 0.0
        for key, (value, stderr) in self.mc.items():
            routes = [r.get(key) for r in (self.k_riccati, self.k_liouville)]
            gaps = [abs(value - r) for r in routes if r is not None and math.isfinite(r)]
            if gaps and stderr > 0.0:
                worst = max(worst, max(gaps) / stderr)
        return worst

    def metrics(self, workload, cache_bytes, output_bytes):
        """Per-layer values of every metric tied to a span (process.* and trace.*
        are the parent's).

        Missing-layer guard: a metric reads MISSING, never 0, if its span was not
        wrapped (the function is gone), or if it was never called on a workload
        in its callers.
        """
        stats = self.span_stats()
        values = {}

        def put(metric, span, callers, value):
            called = stats.get(span, (0,))[0]
            absent = span not in self.wrapped or (workload in callers and called == 0)
            values[metric] = MISSING if absent else value

        def calls(span):
            return stats.get(span, (0, 0.0, 0.0))[0]

        def inclusive(span):
            return stats.get(span, (0, 0.0, 0.0))[1]

        def self_s(span):
            return stats.get(span, (0, 0.0, 0.0))[2]

        gen, sample = "numerics.generator", "paths.sample_state_batch"
        kernel = "transform.build_kernel"
        put("numerics.generator.calls", gen, ALL, calls(gen))
        put("numerics.generator.s", gen, ALL, inclusive(gen))
        put("paths.sample_state_batch.calls", sample, ALL, calls(sample))
        put("paths.sample_state_batch.s", sample, ALL, inclusive(sample))
        put("paths.sample_state_batch.reps", sample, ALL, self.sample_reps)
        put("transform.build_kernel.calls", kernel, ALL, calls(kernel))
        put("transform.build_kernel.s", kernel, ALL, inclusive(kernel))
        put("transform.build_kernel.max_cells", kernel, ALL, self.max_cells)
        put("transform.kernel_ref_err", kernel, ALL, self.kernel_ref_err)
        for span in ("transform.quadratic_variation", "inference.compute_Z_batch",
                     "inference.compute_Q_batch", "inference.sufficient_statistics_batch"):
            put(f"{span}.s", span, ALL, inclusive(span))
        put("inference.estimate_batch.s", "inference.estimate_batch", (KERNEL,),
            inclusive("inference.estimate_batch"))

        riccati, liouville, m_eq = (
            "riccati.solve_riccati", "riccati.k_T_via_liouville", "riccati.solve_M_equation"
        )
        for span in (riccati, liouville, m_eq):
            put(f"{span}.calls", span, (CGF,), calls(span))
            put(f"{span}.s", span, (CGF,), inclusive(span))
        put("riccati.k_T_via_liouville.failed", liouville, (CGF,), self.liouville_failed)
        put("riccati.route_gap_max", liouville, (CGF,), self._route_gap())
        put("riccati.trace_bound_max", m_eq, (CGF,), max(self.trace_bound_max, 0.0))

        cgf = "ldp.empirical_cgf"
        ess = self.ess_frac if math.isfinite(self.ess_frac) else 0.0
        put("ldp.empirical_cgf.calls", cgf, (CGF,), calls(cgf))
        put("ldp.empirical_cgf.s", cgf, (CGF,), inclusive(cgf))
        put("ldp.empirical_cgf.reps", cgf, (CGF,), self.empirical_reps)
        put("ldp.empirical_cgf.ess_frac", cgf, (CGF,), ess)
        put("ldp.mc_z_max", cgf, (CGF,), self._mc_z())
        put("ldp.tail_rate_numeric.s", "ldp.tail_rate_numeric", (TAIL,),
            inclusive("ldp.tail_rate_numeric"))
        put("ldp.rate_function_numeric.calls", "ldp.rate_function_numeric", (TAIL,),
            calls("ldp.rate_function_numeric"))

        put("experiments.run_tail_slopes.self_s", "experiments.run_tail_slopes", (TAIL,),
            self_s("experiments.run_tail_slopes"))
        put("experiments.run_cgf_convergence.self_s", "experiments.run_cgf_convergence", (CGF,),
            self_s("experiments.run_cgf_convergence"))
        put("cli.main.self_s", "cli.main", ALL, self_s("cli.main"))
        put("cli.estimate.cold_s", "cli.main", (KERNEL,), self.command_s.get("estimate", 0.0))
        put("cli.kernel.warm_s", "cli.main", (KERNEL,), self.command_s.get("kernel", 0.0))
        put("cli.kernel_cache.bytes", "cli.main", (KERNEL,), cache_bytes)
        put("cli.output.bytes", "cli.main", ALL, output_bytes)
        return values

    def write(self, path):
        """Spans as gzip CSV; times in seconds from tracer creation."""
        t0 = self._t0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write("id,parent,request,name,start_s,end_s,excluded_s,error\n")
            for sid, parent, request, name, start, end, excluded, failed in self.spans:
                handle.write(
                    f"{sid},{parent},{request},{name},{start - t0:.9f},{end - t0:.9f},"
                    f"{excluded:.9f},{int(failed)}\n"
                )


def collocation_reference(hurst, grid):
    """Collocation operator written from the formula in the transform docstring.

    Cell k of a cellwise-constant kernel contributes
    H * (|s-t_k|^{2H-1} sign(s-t_k) - |s-t_{k+1}|^{2H-1} sign(s-t_{k+1}))
    at the midpoint s of cell i, plus the identity term g(s).
    """
    import numpy as np

    nodes = np.linspace(0.0, grid.horizon, grid.cells + 1)
    mids = 0.5 * (nodes[:-1] + nodes[1:])

    def phi(x):
        return np.sign(x) * np.abs(x) ** (2.0 * hurst - 1.0)

    op = hurst * (phi(mids[:, None] - nodes[None, :-1]) - phi(mids[:, None] - nodes[None, 1:]))
    return op + np.eye(grid.cells)


def kernel_reference_error(hurst, grid, matrix):
    """max |g - dense solve| over fixed horizon columns plus the middle and last."""
    import numpy as np

    if not 0.0 < hurst < 1.0:
        return 0.0
    n = grid.cells
    op = collocation_reference(hurst, grid)
    worst = 0.0
    for j in sorted({j for j in _REF_COLUMNS if j <= n} | {n // 2, n}):
        exact = np.linalg.solve(op[:j, :j], np.ones(j))
        worst = max(worst, float(np.max(np.abs(matrix[j - 1, :j] - exact))))
    return worst
