"""pllab benchmark: one closed-loop client running manifests through the CLI.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 30 --trace 0

The client drives ``pllab.cli.main`` in-process, one manifest at a time; the
next manifest starts only after the previous one returns.  Every output is
checked.  Times are reported at a fixed machine speed, gauged by the
reference job in speed.py.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it are a readable
report.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS thread (never more than nproc): the box is small and shared, and
# a second thread mostly adds run-to-run noise at these matrix sizes.
BLAS_THREADS = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10
TAIL_LADDER = (50, 75, 90, 95, 99)

END_TO_END_UNITS = {"setup_s": "s", "manifests_per_s": "1/s",
                    "latency_p50_s": "s", "latency_tail_s": "s",
                    "peak_rss_mb": "MB"}
ORACLE_UNITS = {"failed_frac": "ratio", "oracle_miss_frac": "ratio",
                "capacity_rel_err": "ratio", "field_oracle_err": "ratio",
                "log_gamma_mean": "log"}


def _pin_environment():
    # a user's cache would leak into solve-cold: PLLAB_CACHE overrides --cache
    os.environ.pop("PLLAB_CACHE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK


def _nproc():
    return len(os.sched_getaffinity(0))


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread counts reported by the OpenBLAS libraries bundled with numpy
    and scipy (loading one again returns the instance already in use)."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
        for name in names:
            if "openblas" not in name:
                continue
            lib = ctypes.CDLL(os.path.join(libs, name))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[name] = fn()
                    break
    return out or {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def _environment(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "nproc": _nproc(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


class Run:
    """One workload's manifests, its cache and what its checks found."""

    def __init__(self, workload, seed, work, cli, check, workloads, speed):
        self.workload, self.seed, self.work = workload, seed, work
        self.cli, self.check, self.workloads = cli, check, workloads
        self.speed = speed       # the reference job, for timed passes
        self.variants = []       # per variant: [(label, manifest, path, key)]
        self.reference = {}      # manifest key -> output digest
        self.findings = {}       # manifest key -> oracle figures
        self.failures = []
        self.cache = None
        self.recorder = None
        self.by_case = {}        # label -> timed wall seconds
        self.scales = []         # per timed manifest, reference / speed

    def _write(self, cases, directory):
        os.makedirs(directory)
        entries = []
        for i, (label, man) in enumerate(cases):
            text = json.dumps(man, sort_keys=True)
            path = os.path.join(directory, f"{i:02d}.json")
            with open(path, "w") as f:
                f.write(text)
            entries.append((label, man, path, hashlib.sha256(
                text.encode()).hexdigest()))
        return entries

    def prepare(self, rep):
        """Generate and write the manifests; prime the cache if the workload
        replays.  Returns the seconds spent, output checks excluded."""
        t0 = time.perf_counter()
        variants = self.workloads.WORKLOADS[self.workload](self.seed)
        mdir = os.path.join(self.work, "manifests")
        shutil.rmtree(mdir, ignore_errors=True)
        self.variants = []
        priming = []
        for v, cases in enumerate(variants):
            keys = [k for _, man in cases for k in self.workloads.fekete_keys(man)]
            if len(keys) != len(set(keys)):
                raise RuntimeError(f"variant {v} repeats a cache key")
            self.variants.append(self._write(cases, os.path.join(mdir, str(v))))
            if self.workloads.PRIMED[self.workload]:
                priming.append(self._write(self.workloads.priming(cases),
                                           os.path.join(mdir, f"prime{v}")))
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache = os.path.join(self.work, f"cache-setup{rep}")
        elapsed = time.perf_counter() - t0
        for entries in priming:
            times, _, _ = self.run_pass(entries, self.cache,
                                        f"priming {rep}")
            elapsed += sum(times)
        return elapsed

    def run_pass(self, entries, cache, tag, timed=False):
        """Run entries once, in order.  A timed pass runs the reference job
        before each manifest and after the last, and scales each manifest's
        time by the mean of the two jobs around it.  Returns (per-manifest
        wall seconds, per-manifest scales to the reference speed, failures);
        the scales are empty for an untimed pass."""
        out_root = os.path.join(self.work, "out")
        shutil.rmtree(out_root, ignore_errors=True)
        results = []
        jobs = [self.speed.reference_seconds()] if timed else []
        for i, (label, man, path, key) in enumerate(entries):
            outdir = os.path.join(out_root, f"{i:02d}")
            argv = ["--manifest", path, "--out", outdir, "--cache", cache]
            if self.recorder is not None:
                self.recorder.request = f"{label}/{key[:8]}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:     # the CLI let an error escape
                    rc = f"raised {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            results.append((label, man, key, outdir, rc, err.getvalue(), dt))
            if timed:
                self.by_case.setdefault(label, []).append(dt)
                jobs.append(self.speed.reference_seconds())
        scales = [2 * self.speed.REFERENCE_S / (a + b)
                  for a, b in zip(jobs, jobs[1:])]
        failed = 0
        for label, man, key, outdir, rc, err, _ in results:
            cause = self._verify(man, key, outdir, rc, err)
            if cause is not None:
                failed += 1
                self.failures.append(f"{tag}: {label} "
                                     f"(manifest {key[:8]}): {cause}")
        shutil.rmtree(out_root, ignore_errors=True)
        return [r[-1] for r in results], scales, failed

    def _verify(self, man, key, outdir, rc, err):
        check = self.check
        if isinstance(rc, str):
            return rc
        if rc != 0:
            last = err.strip().splitlines()[-1:] or [""]
            return f"exit {rc} {last[0]}".strip()
        got = check.digest(outdir)
        ref = self.reference.get(key)
        if ref is not None:
            if got != ref:
                differ = sorted(k for k in set(got) | set(ref)
                                if got.get(k) != ref.get(k))
                return ("output bytes differ from an earlier pass: "
                        + ", ".join(differ))
            return None
        try:
            self.findings[key] = check.inspect(man, outdir)
        except check.CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        self.reference[key] = got
        return None

    def oracle_figures(self):
        """Oracle figures over the timed manifests; identical bytes give
        identical figures, so each manifest counts once."""
        timed = {key for entries in self.variants for *_, key in entries}
        figs = [f for key, f in self.findings.items() if key in timed]
        out = {}
        misses = [f["oracle"] for f in figs if "oracle" in f]
        if misses:
            out["oracle_miss_frac"] = (sum(m for m, _ in misses)
                                       / sum(n for _, n in misses))
        caps = [f["capacity_rel_err"] for f in figs if "capacity_rel_err" in f]
        if caps:
            out["capacity_rel_err"] = max(caps)
        fields = [f["field_oracle_err"] for f in figs if "field_oracle_err" in f]
        if fields:
            out["field_oracle_err"] = max(fields)
        gammas = [g for f in figs for g in f.get("log_gammas", [])]
        if gammas:
            out["log_gamma_mean"] = statistics.fmean(gammas)
        return out


def _tail(latencies, percentile):
    """The latency at the workload's tail percentile, with the number of
    samples beyond it; falls to the next lower percentile of the ladder
    while fewer than TAIL_BEYOND samples lie beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    ladder = [p for p in TAIL_LADDER if p <= percentile]
    for p in reversed(ladder):
        pos = p / 100 * (n - 1)
        beyond = n - 1 - int(pos)
        if beyond >= TAIL_BEYOND or p == ladder[0]:
            lo = ordered[int(pos)]
            hi = ordered[min(int(pos) + 1, n - 1)]
            return lo + (hi - lo) * (pos - int(pos)), p, beyond


def _passes(run, cache_tag, until=None, sequence=None, tag="timed"):
    """Run passes cycling through the variants, each from its own cache for
    cold workloads, until the next pass would end past the deadline; or run
    the variants listed in sequence.  A run that got through every variant
    at most once ends by repeating the first, so each run compares some
    output bytes with an earlier pass.  Returns (latencies at the reference
    speed, wall latencies, pass seconds at the reference speed, failures,
    variants run)."""
    latencies, wall, pass_seconds, failed, done = [], [], [], 0, []
    pass_wall = []      # per pass, the reference jobs included
    primed = run.workloads.PRIMED[run.workload]
    while sequence is None or len(done) < len(sequence):
        if sequence is not None:
            v = sequence[len(done)]
        elif pass_wall and (time.perf_counter()
                            + statistics.fmean(pass_wall) >= until):
            if len(set(done)) < len(done):
                break
            v = 0
        else:
            v = len(done) % len(run.variants)
        k = len(done)
        cache = run.cache if primed else os.path.join(
            run.work, f"cache-{cache_tag}{k}")
        t0 = time.perf_counter()
        times, scales, bad = run.run_pass(run.variants[v], cache,
                                          f"{tag} pass {k}", timed=True)
        if not primed:
            shutil.rmtree(cache, ignore_errors=True)
        pass_wall.append(time.perf_counter() - t0)
        run.scales += scales
        scaled = [t * f for t, f in zip(times, scales)]
        latencies += scaled
        wall += times
        pass_seconds.append(sum(scaled))
        failed += bad
        done.append(v)
    return latencies, wall, pass_seconds, failed, done


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<24} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-cold", "replay-warm", "relative-field"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pllab", "cli.py")):
        print(f"error: no pllab sources under {SRC}", file=sys.stderr)
        return 2

    _pin_environment()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import pllab
    from pllab import cli
    import check
    import speed
    import spans
    import workloads
    if not os.path.abspath(pllab.__file__).startswith(SRC + os.sep):
        print(f"error: imported pllab from {pllab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _benchmark(args, work, import_s, cli, check, speed, spans,
                          workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(args, work, import_s, cli, check, speed, spans, workloads):
    env = _environment(args)
    run = Run(args.workload, args.seed, work, cli, check, workloads, speed)
    # set-up is scaled to the reference speed like the passes: the imports
    # by the job right after them, each preparation by the jobs around it
    before = speed.reference_seconds()
    import_scaled = import_s * speed.REFERENCE_S / before
    prep, prep_wall = [], []
    for rep in range(SETUP_REPEATS):
        elapsed = run.prepare(rep)
        after = speed.reference_seconds()
        prep.append(elapsed * speed.REFERENCE_S / ((before + after) / 2))
        prep_wall.append(elapsed)
        before = after
    setup_s = import_scaled + statistics.median(prep)
    setup_wall = import_s + statistics.median(prep_wall)
    # the benchmark's own copies of the manifests are large object graphs;
    # frozen, they no longer lengthen the collections that run inside the
    # timed calls
    gc.collect()
    gc.freeze()

    start = time.perf_counter()
    if args.trace:
        half = start + args.seconds / 2
        plain, wall, plain_passes, failed_a, seq = _passes(
            run, "plain", until=half)
        k = len(seq)
        recorder = spans.Recorder()
        recorder.install()
        run.recorder = recorder
        try:
            traced, _, _, failed_b, _ = _passes(
                run, "traced", sequence=seq, tag="traced")
            recorder.keep_spans = False
        finally:
            recorder.uninstall()
            run.recorder = None
        # end-to-end figures in the report come from the untraced passes
        latencies, pass_seconds = plain, plain_passes
        attempted = len(plain) + len(traced)
        failed = failed_a + failed_b
        overhead = sum(traced) / sum(plain) - 1.0
        metrics = recorder.metrics(k, overhead)
        problems = recorder.problems(args.workload)
        recorder.write(os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        latencies, wall, pass_seconds, failed, seq = _passes(
            run, "pass", until=start + args.seconds)
        k = len(seq)
        attempted = len(latencies)
        problems = []
    tail, tail_pct, beyond = _tail(
        latencies, workloads.TAIL_PERCENTILE[args.workload])
    end_to_end = {
        "setup_s": setup_s,
        "manifests_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_tail, _, _ = _tail(wall, tail_pct)
    unscaled = {
        "setup_s": setup_wall,
        "manifests_per_s": len(wall) / sum(wall),
        "latency_p50_s": statistics.median(wall),
        "latency_tail_s": wall_tail,
    }
    oracle = {"failed_frac": failed / attempted, **run.oracle_figures()}

    print(f"pllab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{k} passes of {len(run.variants[0])} manifests"
          f"{' untraced + traced' if args.trace else ''}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("end to end (closed loop, 1 client; nothing waits on a queue or "
          "another process, so waiting time is absent; times at the "
          "reference speed):")
    for name, value in end_to_end.items():
        note = ""
        if name == "latency_tail_s":
            note = f"p{tail_pct} of {len(latencies)} manifests, {beyond} beyond"
        elif name == "setup_s":
            note = (f"imports {import_scaled:.3f} s + median of "
                    f"{SETUP_REPEATS} preparations")
        _print_metric(name, value, END_TO_END_UNITS[name], note)
    print(f"the same on the wall clock (reference / speed per manifest: "
          f"median {statistics.median(run.scales):.3f}, "
          f"{min(run.scales):.3f} to {max(run.scales):.3f}):")
    for name, value in unscaled.items():
        _print_metric(name, value, END_TO_END_UNITS[name])
    for name, value in oracle.items():
        _print_metric(name, value, ORACLE_UNITS[name])
    print("pass seconds: " + " ".join(f"{t:.3f}" for t in pass_seconds))
    print("median wall seconds per case:")
    for label, times in run.by_case.items():
        _print_metric(label, statistics.median(times), "s", f"{len(times)} runs")
    if args.trace:
        print(f"per layer (per traced pass, {k} passes):")
        for name in spans.metric_names():
            _print_metric(name, metrics[name], _layer_unit(name))
        for stem, sites in sorted(recorder.bindings.items()):
            print(f"  wrapped {stem} at {', '.join(sites)}")
    for line in run.failures + problems:
        print("FAILED " + line)

    record = {"environment": env, "end_to_end": end_to_end, "oracle": oracle,
              "wall_clock": unscaled, "scales": run.scales,
              "latency_tail_percentile": tail_pct, "samples": len(latencies),
              "pass_seconds": pass_seconds, "latencies": latencies,
              "wall_latencies": wall,
              "failures": run.failures, "problems": problems}
    if args.trace:
        record["per_layer"] = metrics
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    if args.trace:
        units = {name: _layer_unit(name) for name in spans.metric_names()}
        shown = {name: {"value": metrics[name], "unit": units[name]}
                 for name in spans.metric_names()}
    else:
        shown = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                 for name, value in end_to_end.items()}
    correct = not run.failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_frac", "_max")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
