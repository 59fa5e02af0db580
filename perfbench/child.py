"""One benchmark repetition in a fresh process; started by run.py, not by hand.

Order of work: interpreter start and imports (mfou.cli and everything its
commands load), creating the cache and output directories, which together
are the set-up time; a speed-probe burst; the workload's commands and direct
API steps (the timed phase, optionally traced, with the probe sampling
alongside); then the untimed output checks and the science hash. The result
goes to a JSON file named on the command line.
"""

import time

import argparse
import json
import os
import resource
import sys
import threading


def _parse():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--run-dir", required=True, help="holds cache/ and out/; made here")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None, help="trace the run and write spans here")
    return parser.parse_args()


def _tree_bytes(path):
    total = 0
    for dirpath, _, filenames in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in filenames)
    return total


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class SpeedProbe(threading.Thread):
    """Samples the speed of this process's CPU, after set-up and during the timed phase.

    A sample times, in thread CPU time, a pure-Python loop of small numpy
    operations on a 64-element array, the kind of work that dominates the
    ODE routes and the sampler's bookkeeping, and two products of a 4 MB
    matrix with a vector, bound by the memory system. Time the thread spends
    preempted does not count. The process is pinned to one CPU first, so the
    probe runs where the workload runs and slows down with it when something
    outside the process contends for that CPU or for memory. Seconds times
    REFERENCE_NS / (trimmed mean sample time) are seconds at the reference
    speed, where one sample takes REFERENCE_NS.

    `burst` samples back to back for BURST_S, right after set-up. While the
    workload runs, the thread takes one sample every PERIOD_S. Each sample
    first runs its work once untimed, so the timed part finds its code and
    data where that run left them, whatever the workload did to the caches.
    """

    BURST_S = 0.25
    PERIOD_S = 0.1
    STEPS = 100
    REFERENCE_NS = 1_100_000
    MIN_SAMPLES = 5
    TRIM = 0.1  # share of samples dropped at each end before averaging

    def __init__(self):
        import numpy as np

        super().__init__(daemon=True)
        self.samples = []
        self._np = np
        self._small = np.ones(64)
        self._matrix = np.ones((1024, 512))
        self._vector = np.ones(512)
        self._stop_event = threading.Event()

    def _work(self, steps, products):
        np, x = self._np, self._small
        for _ in range(steps):
            y = x * 0.5 + 1.0
            y = np.exp(-y) + np.sqrt(y)
            x = y / y.sum()
        for _ in range(products):
            self._matrix @ self._vector

    def _sample(self):
        self._work(3, 1)
        start = time.thread_time_ns()
        self._work(self.STEPS, 2)
        return time.thread_time_ns() - start

    def burst(self):
        """Trimmed mean sample time of a burst taken now, in nanoseconds."""
        samples = []
        end = time.perf_counter() + self.BURST_S
        while time.perf_counter() < end:
            samples.append(self._sample())
        return _trimmed_mean(samples, self.TRIM)

    def run(self):
        while not self._stop_event.wait(self.PERIOD_S):
            self.samples.append(self._sample())

    def stop(self):
        """Stop sampling; return the trimmed mean sample time in nanoseconds."""
        self._stop_event.set()
        self.join()
        while len(self.samples) < self.MIN_SAMPLES:
            self.samples.append(self._sample())
        return _trimmed_mean(self.samples, self.TRIM)


def _trimmed_mean(values, trim):
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def main():
    args = _parse()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import mfou.cli
    import mfou.experiments  # noqa: F401  (loads numpy, scipy and every layer)

    cache = os.path.join(args.run_dir, "cache")
    out = os.path.join(args.run_dir, "out")
    os.makedirs(cache)
    os.makedirs(out)
    setup_s = time.monotonic() - args.spawn_time
    probe = SpeedProbe()
    setup_probe_ns = probe.burst()
    result = {
        "setup_raw_s": setup_s,
        "setup_s": setup_s * SpeedProbe.REFERENCE_NS / setup_probe_ns,
    }
    if args.setup_only:
        _write(args.result, result)
        return 0

    import contextlib
    import io

    from workloads import WORKLOADS, science_hash

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    commands = workload.commands(args.seed, out)
    sink = io.StringIO()
    probe.start()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    exit_codes = []
    for request, argv in enumerate(commands):
        if tracer is not None:
            tracer.request = request
        with contextlib.redirect_stdout(sink):
            exit_codes.append(mfou.cli.main(argv))
    if tracer is not None:
        tracer.request = len(commands)
    direct_values, direct_ops = workload.direct(args.seed)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    sample_ns = probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        wall_s -= tracer.excluded  # reference checks ran inside the timed phase
        result["per_layer"] = tracer.metrics(args.workload, _tree_bytes(cache), _tree_bytes(out))
        tracer.write(args.trace_file)
    ops = workload.check(args.seed, out, exit_codes) + direct_ops
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        wall_norm_s=wall_s * SpeedProbe.REFERENCE_NS / sample_ns,
        probe_ms=sample_ns / 1e6,
        ops=ops,
        science_hash=science_hash(out, direct_values),
        provenance=_provenance(),
    )
    _write(args.result, result)
    return 0


def _provenance():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinning variable."""
    import ctypes

    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _write(path, result):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
