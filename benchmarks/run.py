"""qhal benchmark: what a caller of the four analysis requests waits for.

    python3 benchmarks/run.py --workload dense_lattice --seed 1 --seconds 30 --trace 0

Run from the repository root; qhal is imported from ``src/`` of the same
tree, never from an installed copy.  Each workload is a closed loop with one
caller that cycles through riesz, approx, recover and divide requests (see
``workloads.py`` and README.md).  Every result is checked after the timed
call.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced run.  A record with the environment, sample counts and failures is
written to ``benchmarks/results/``.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

# glibc malloc keeps freed memory instead of returning it to the kernel.  With
# the defaults every temporary of L = 225 is a fresh mmap and an approx request
# takes ~85k minor page faults, which more than doubled its time and widened
# the run-to-run spread (README.md).  glibc reads these only at process start,
# so the benchmark restarts itself once with them set; children inherit them.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1073741824"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import LAYERS  # noqa: E402  (this directory; no numpy or qhal)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 3
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
TRACE_CYCLES = 4  # one Gaussian request of each type, so counts repeat exactly
KINDS = ("riesz", "approx", "recover", "divide")

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
    **{f"{kind}_p50_ms": "ms" for kind in KINDS},
    **{f"{kind}_tail_ms": "ms" for kind in KINDS},
}

SELF_MS = (
    "analysis.gram_matrix",
    "analysis.eigvalsh",
    "analysis.riesz_report",
    "analysis.biorthogonal_generator",
    "analysis.best_approximation",
    "analysis.recover_mask",
    "analysis.underspread_divide",
    "convolutions.seq_op_conv",
    "convolutions.op_op_conv",
    "operators.translate",
    "transforms.fourier_wigner",
    "transforms.inverse_fourier_wigner",
    "transforms.periodize",
    "transforms.symplectic_fourier_series",
    "transforms.inverse_symplectic_fourier_series",
    "io.dumps_sequence",
    "io.loads_operator",
    "io.save_text",
    "io.load_text",
    "cli.main",
    "cli.render_json",
    "cli.parse_lattice_spec",
)
CALLS = (
    "convolutions.seq_op_conv",
    "convolutions.op_op_conv",
    "convolutions.fs_of_op_op_conv",
    "operators.translate",
    "transforms.fourier_wigner",
    "transforms.inverse_fourier_wigner",
    "transforms.periodize",
    "transforms.symplectic_fourier_series",
    "transforms.inverse_symplectic_fourier_series",
    "windows.gaussian_window",
)
# per-call medians compared with the ROADMAP baseline table
CALL_P50 = (
    "transforms.fourier_wigner",
    "convolutions.seq_op_conv",
    "convolutions.op_op_conv",
    "analysis.gram_matrix",
    "analysis.riesz_report",
    "analysis.best_approximation",
)
PER_LAYER = {
    **{f"{name}.self_ms": "ms/request" for name in SELF_MS},
    **{f"{name}.calls": "calls/request" for name in CALLS},
    "windows.gaussian_window.failures": "fails/request",
    **{f"{name}.call_p50_ms": "ms" for name in CALL_P50},
    "phase_space.setup_ms": "ms",
    "phase_space.adjoint_lattice.hit_ratio": "ratio",
    "phase_space.quotient_reps.hit_ratio": "ratio",
    "io.bytes_written": "bytes/request",
    "io.bytes_read": "bytes/request",
    "cli.import_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "tracing.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="L = 15 variants")
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time as JSON and exit",
    )
    return p.parse_args(argv)


def rng_for(seed: int, stream: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, stream, index])


def pin_quietest_cpu():
    """Move this process to the allowed CPU where a short loop runs fastest.

    On a shared host a CPU whose physical core is busy with another tenant
    ran the same numpy kernel up to ~50% slower, in phases of seconds to
    tens of seconds.  Choosing before set-up and before each request keeps
    the single caller off the busy one; children inherit the choice.
    """
    if len(ALLOWED_CPUS) < 2:
        return
    best = None
    for cpu in ALLOWED_CPUS:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # CPU set changed under us; measure where we are
            return
        sum(i * i for i in range(5000))
        t = perf_counter()
        sum(i * i for i in range(20000))
        elapsed = perf_counter() - t
        if best is None or elapsed < best[0]:
            best = (elapsed, cpu)
    os.sched_setaffinity(0, {best[1]})


# -- the closed loop ---------------------------------------------------------


class Stats:
    def __init__(self):
        self.samples = {kind: [] for kind in KINDS}
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.correct = True
        self.failures = {}
        self.worst_deviation = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def fail(self, what: str, incorrect: bool):
        self.failed += 1
        self.correct = self.correct and not incorrect
        key = what[:300]
        self.failures[key] = self.failures.get(key, 0) + 1


def serve(session, req, stats, tracer=None, index=None):
    """One request: the timed call, then the check outside the timed interval."""
    pin_quietest_cpu()
    call = req.call
    if tracer is not None:
        tracer.request = index
        tracer.active = True
        call = lambda: tracer.span(f"request.{req.kind}", req.call)  # noqa: E731
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:
        stats.attempted += 1
        stats.busy_s += perf_counter() - start
        label = f"{req.kind} gaussian={req.gaussian}: {type(exc).__name__}: {exc}"
        stats.fail(label, incorrect=not session.is_refusal(exc))
        return
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = perf_counter() - start
    stats.attempted += 1
    stats.busy_s += elapsed
    verify(req, result, elapsed, stats)


def verify(req, result, elapsed, stats):
    from workloads import RTOL

    try:
        deviation = req.check(result)
    except Exception as exc:  # a malformed result is a wrong result
        stats.fail(f"{req.kind} check raised {type(exc).__name__}: {exc}", True)
        return
    stats.worst_deviation = max(stats.worst_deviation, deviation)
    if deviation <= RTOL:
        stats.samples[req.kind].append(elapsed)
    else:
        stats.fail(f"{req.kind} gaussian={req.gaussian}: deviation > {RTOL:g}", True)


def run_cycle(session, seed, cycle, stats, tracer=None):
    from workloads import plan

    for k, (kind, gaussian) in enumerate(plan(cycle)):
        index = cycle * len(KINDS) + k
        req = session.request(kind, gaussian, rng_for(seed, 1, index), cycle)
        serve(session, req, stats, tracer, index)
    session.clear()


def run_loop(session, seed, seconds):
    """Whole cycles until `seconds` have passed."""
    stats = Stats()
    start = perf_counter()
    cycle = 0
    while perf_counter() - start < seconds:
        run_cycle(session, seed, cycle, stats)
        cycle += 1
    return stats


# -- set-up ------------------------------------------------------------------


def library_setup(w, seed):
    """Lattices, adjoint and quotient caches, one warm-up request per type."""
    import workloads

    session = workloads.LibrarySession(w)
    warm = []
    for k, kind in enumerate(KINDS):
        req = session.request(kind, False, rng_for(seed, 0, k), 0)
        warm.append((req, req.call()))
    return session, warm


def check_warmups(warm, stats):
    for req, result in warm:
        stats.attempted += 1
        verify(req, result, 0.0, stats)


def setup_child(args) -> float:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def cli_setup_sample(session, seed, k, stats):
    """Input files for one request plus one warm-up child."""
    start = perf_counter()
    req = session.request("riesz", False, rng_for(seed, 0, k), 0)
    result = req.call()
    elapsed = perf_counter() - start
    check_warmups([(req, result)], stats)
    session.clear()
    return elapsed


# -- metrics -----------------------------------------------------------------


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples above it, never below the
    median: with n <= 21 samples the tail is the median."""
    return max(50.0, 100.0 * (n - 11) / (n - 1)) if n > 1 else 50.0


def end_to_end(stats, setup_samples, rss_mb):
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "requests_per_s": rps(stats),
        "failed_ratio": stats.failed / stats.attempted,
        "peak_rss_mb": rss_mb,
    }
    tails = {}
    for kind in KINDS:
        samples = stats.samples[kind]
        q = tail_percentile(len(samples))
        tails[kind] = {"samples": len(samples), "tail_percentile": q}
        metrics[f"{kind}_p50_ms"] = 1e3 * percentile(samples, 50) if samples else 0.0
        metrics[f"{kind}_tail_ms"] = 1e3 * percentile(samples, q) if samples else 0.0
    return metrics, tails


def per_layer(spans, n_requests, cache, bytes_rw, import_s, lattice_setup_s, overhead):
    from tracing import END, NAME, START, by_name, median_or_zero

    table = by_name(spans)
    empty = {"calls": 0, "self_s": 0.0, "failures": 0, "durations": []}
    row = lambda name: table.get(name, empty)  # noqa: E731
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = 1e3 * row(name)["self_s"] / n_requests
    for name in CALLS:
        metrics[f"{name}.calls"] = row(name)["calls"] / n_requests
    metrics["windows.gaussian_window.failures"] = (
        row("windows.gaussian_window")["failures"] / n_requests
    )
    for name in CALL_P50:
        metrics[f"{name}.call_p50_ms"] = 1e3 * median_or_zero(row(name)["durations"])
    metrics["phase_space.setup_ms"] = 1e3 * median_or_zero(lattice_setup_s)
    for fn in ("adjoint_lattice", "quotient_reps"):
        hits, misses = cache[fn]
        ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"phase_space.{fn}.hit_ratio"] = ratio
    metrics["io.bytes_written"] = bytes_rw[0] / n_requests
    metrics["io.bytes_read"] = bytes_rw[1] / n_requests
    metrics["cli.import_ms"] = 1e3 * median_or_zero(import_s)
    request_s = sum(
        s[END] - s[START] for s in spans if s[NAME].startswith("request.")
    )
    for layer in LAYERS:
        own = sum(r["self_s"] for n, r in table.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = own / request_s
    metrics["tracing.overhead_ratio"] = overhead
    return metrics


def rps(stats):
    return stats.completed / stats.busy_s


# -- the run -----------------------------------------------------------------


def environment():
    import numpy as np

    import qhal

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qhal_file": qhal.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc": {var: os.environ.get(var) for var in MALLOC_ENV},
    }


def git_commit():
    """HEAD of the tree under test, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, w, start):
    """--trace 0: set-up samples, then whole cycles for --seconds."""
    import workloads

    stats = Stats()
    if w.cli:
        workdir = os.path.join(HERE, ".work", str(os.getpid()))
        os.makedirs(workdir, exist_ok=True)
        try:
            session = workloads.CliSession(w, workdir, SRC)
            setup = [
                cli_setup_sample(session, args.seed, k, stats)
                for k in range(SETUP_SAMPLES)
            ]
            loop = run_loop(session, args.seed, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        session, warm = library_setup(w, args.seed)
        setup = [perf_counter() - start]
        check_warmups(warm, stats)
        setup += [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        loop = run_loop(session, args.seed, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, tails = end_to_end(loop, setup, rss_kb / 1024.0)
    extra = {
        "setup_samples_s": setup,
        "tails": tails,
        "loop_seconds": args.seconds,
        "latencies_ms": {k: [round(1e3 * x, 3) for x in v] for k, v in loop.samples.items()},
    }
    return loop, stats, metrics, extra


def trace(args, w):
    """--trace 1: TRACE_CYCLES cycles, each run untraced and then traced on
    the same inputs, so drift in machine speed cancels in the overhead."""
    import workloads
    from tracing import REQUEST, Tracer, lattice_setup_s, write_spans

    setup_stats, plain, traced = Stats(), Stats(), Stats()
    if w.cli:
        workdir = os.path.join(HERE, ".work", str(os.getpid()))
        try:
            sessions = []
            for launcher in (None, os.path.join(HERE, "cli_child.py")):
                sub = os.path.join(workdir, "traced" if launcher else "plain")
                os.makedirs(sub)
                sessions.append(workloads.CliSession(w, sub, SRC, launcher=launcher))
            for cycle in range(TRACE_CYCLES):
                run_cycle(sessions[0], args.seed, cycle, plain)
                run_cycle(sessions[1], args.seed, cycle, traced)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        docs = sessions[1].traces
        spans = [tuple(s) for doc in docs for s in doc["spans"]]
        cache = {
            fn: tuple(sum(doc["cache"][fn][i] for doc in docs) for i in (0, 1))
            for fn in ("adjoint_lattice", "quotient_reps")
        }
        bytes_rw = (
            sum(doc["bytes_written"] for doc in docs),
            sum(doc["bytes_read"] for doc in docs),
        )
        import_s = [doc["import_s"] for doc in docs]
        cold = [
            lattice_setup_s(doc["spans"])
            for doc in docs
            if any(s[1] == "phase_space.quotient_reps" for s in doc["spans"])
        ]
    else:
        import qhal.phase_space as ps

        session, warm = library_setup(w, args.seed)
        check_warmups(warm, setup_stats)
        caches = {"adjoint_lattice": ps.adjoint_lattice, "quotient_reps": ps.quotient_reps}
        tracer = Tracer()
        before = {fn: c.cache_info()[:2] for fn, c in caches.items()}
        for cycle in range(TRACE_CYCLES):
            run_cycle(session, args.seed, cycle, plain)
            tracer.install()
            try:
                run_cycle(session, args.seed, cycle, traced, tracer)
            finally:
                tracer.uninstall()
        after = {fn: c.cache_info()[:2] for fn, c in caches.items()}
        cache = {fn: tuple(a - b for a, b in zip(after[fn], before[fn])) for fn in caches}
        spans = list(tracer.spans)
        bytes_rw = (tracer.bytes_written, tracer.bytes_read)
        import_s = []
        # cold lattice set-up, traced like the CLI children see it
        cold = []
        tracer.install()
        try:
            for k in range(SETUP_SAMPLES):
                for fn in caches.values():
                    fn.cache_clear()
                tracer.request, tracer.active = f"setup{k}", True
                tracer.span("request.setup", session.build_lattices)
                tracer.active = False
                cold.append(
                    lattice_setup_s([s for s in tracer.spans if s[REQUEST] == f"setup{k}"])
                )
        finally:
            tracer.uninstall()
    metrics = per_layer(
        spans, traced.attempted, cache, bytes_rw, import_s, cold, rps(traced) / rps(plain)
    )
    loop = Stats()
    for other in (plain, traced):
        loop.attempted += other.attempted
        loop.failed += other.failed
        loop.correct = loop.correct and other.correct
        loop.worst_deviation = max(loop.worst_deviation, other.worst_deviation)
        for key, count in other.failures.items():
            loop.failures[key] = loop.failures.get(key, 0) + count
    extra = {"trace_cycles": TRACE_CYCLES, "spans": len(spans)}
    os.makedirs(RESULTS, exist_ok=True)
    write_spans(result_path(args, "spans.jsonl.gz"), spans)
    return loop, setup_stats, metrics, extra


def result_path(args, suffix):
    tag = "-smoke" if args.smoke else ""
    return os.path.join(
        RESULTS, f"{args.workload}{tag}-seed{args.seed}-trace{args.trace}.{suffix}"
    )


def main(argv=None) -> int:
    pin_quietest_cpu()
    start = perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qhal")):
        print(f"error: no qhal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.workload(args.workload, smoke=args.smoke)

    if args.setup_only:
        stats = Stats()
        session, warm = library_setup(w, args.seed)
        elapsed = perf_counter() - start
        check_warmups(warm, stats)
        if not stats.correct or stats.failed:
            print(f"error: warm-up failed: {stats.failures}", file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": elapsed}))
        return 0

    if args.trace:
        loop, setup_stats, metrics, extra = trace(args, w)
        units = PER_LAYER
    else:
        loop, setup_stats, metrics, extra = measure(args, w, start)
        units = END_TO_END
    correct = loop.correct and setup_stats.correct and not setup_stats.failed

    record = {
        "workload": args.workload,
        "smoke": args.smoke,
        "seed": args.seed,
        "trace": args.trace,
        "L": w.L,
        "lattices": list(w.lattices),
        "environment": environment(),
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "worst_relative_deviation": max(loop.worst_deviation, setup_stats.worst_deviation),
        "setup_failures": setup_stats.failures,
        "metrics": metrics,
        **extra,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(result_path(args, "json"), "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    for key, count in loop.failures.items():
        print(f"failed x{count}: {key}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
