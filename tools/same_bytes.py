"""Check that two pllab trees write the same bytes on every benchmark manifest.

    python3 tools/same_bytes.py PARENT CHANGE --seed 11

PARENT and CHANGE are pllab checkouts (or their ``src`` directories).  The
manifests are those of the three workloads in ``perfbench/workloads.py`` of
this checkout, drawn at the given seed: every solve-cold variant, replay-warm
and relative-field.  To them are added the fixed ``UNTRUSTED`` manifests,
whose Fekete refinements take the full-solve branch that no benchmark
manifest reaches.  Each tree runs every manifest through ``pllab.cli.main``
three times, at one BLAS thread: once with ``--no-cache``, then twice on a
fresh cache of its own (a miss, then a hit).  The sha256 of every output file
and the exit code of every run are compared between the trees, and inside
each tree the miss and the hit are compared with the ``--no-cache`` run of
the same manifest.  Prints each difference and exits 1 if there is any,
else 0.

Each tree runs in its own Python process (the two at once), which imports
pllab from that tree only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
MODES = ("no-cache", "miss", "hit")
# Fubini-Study weighted discs D(0, r) whose node matrices are too
# ill-conditioned for the approximate Lagrange matrix to be trusted, so the
# refinement decides on full solves (2, 21 and 11 of them).  They do not
# all match re-solving after every swap, so only a parent can check them.
UNTRUSTED = [
    (f"untrusted/fekete-fubini-study-disc-r{r:g}-d{d}",
     {"command": "fekete", "degrees": [d], "weight": "fubini-study",
      "seed": 0, "spec": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                          "radius": r}})
    for r, d in ((1.0, 60), (2.0, 60), (3.0, 40))]


def _src(tree):
    """The directory that holds a tree's pllab package."""
    for path in (os.path.join(tree, "src"), tree):
        if os.path.isfile(os.path.join(path, "pllab", "cli.py")):
            return os.path.abspath(path)
    raise SystemExit(f"error: no pllab package in {tree} or {tree}/src")


def _manifests(seed):
    """(name, manifest) for every manifest of the three workloads, then
    the UNTRUSTED ones."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for workload, draw in (("solve-cold", workloads.solve_cold),
                           ("replay-warm", workloads.replay_warm),
                           ("relative-field", workloads.relative_field)):
        for v, cases in enumerate(draw(seed)):
            out += [(f"{workload}/{v}/{label}", man) for label, man in cases]
    return out + UNTRUSTED


def _digests(outdir):
    found = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, outdir)] = hashlib.sha256(
                    f.read()).hexdigest()
    return found


def _worker(seed, result_path):
    """Run every manifest in this process; write {run: {rc, files}}."""
    import contextlib
    import io
    from pllab import cli
    if not cli.__file__.startswith(sys.path[1] + os.sep):
        raise SystemExit(f"error: imported pllab from {cli.__file__}")
    results = {}
    with tempfile.TemporaryDirectory() as work:
        mpath = os.path.join(work, "manifest.json")
        for k, (name, man) in enumerate(_manifests(seed)):
            with open(mpath, "w") as f:
                json.dump(man, f)
            cache = os.path.join(work, f"cache{k}")
            for mode in MODES:
                outdir = os.path.join(work, f"out{k}-{mode}")
                argv = ["--manifest", mpath, "--out", outdir]
                argv += ["--no-cache"] if mode == "no-cache" else [
                    "--cache", cache]
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                results[f"{name} {mode}"] = {"rc": rc,
                                             "files": _digests(outdir)}
    with open(result_path, "w") as f:
        json.dump(results, f)


def _differences(label, ra, rb):
    """Lines naming the exit code and each output file two runs differ in."""
    lines = []
    if ra["rc"] != rb["rc"]:
        lines.append(f"{label}: exit {ra['rc']} vs {rb['rc']}")
    fa, fb = ra["files"], rb["files"]
    for name in sorted(set(fa) | set(fb)):
        if fa.get(name) != fb.get(name):
            lines.append(f"{label}: {name} differs")
    return lines


def _compare(a, b):
    """Lines naming every run whose exit code or output files differ."""
    lines = []
    for run in sorted(set(a) | set(b)):
        if run not in a or run not in b:
            lines.append(f"{run}: run by one tree only")
        else:
            lines += _differences(run, a[run], b[run])
    return lines


def _cached_vs_uncached(tree, results):
    """Lines naming every miss or hit run of a tree whose exit code or
    output files differ from the tree's --no-cache run of that manifest."""
    lines = []
    for run in sorted(results):
        name, mode = run.rsplit(" ", 1)
        if mode != MODES[0]:
            lines += _differences(f"{tree}: {run} vs {MODES[0]}",
                                  results[f"{name} {MODES[0]}"], results[run])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PLLAB_CACHE", None)
    with tempfile.TemporaryDirectory() as work:
        procs = []
        for k, tree in enumerate((args.parent, args.change)):
            result = os.path.join(work, f"result{k}.json")
            code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                    "sys.path.insert(0, sys.argv[2]); import same_bytes; "
                    "same_bytes._worker(int(sys.argv[3]), sys.argv[4])")
            procs.append((subprocess.Popen(
                [sys.executable, "-c", code, _src(tree),
                 os.path.dirname(os.path.abspath(__file__)), str(args.seed),
                 result], env=env), result))
        results = []
        for proc, result in procs:
            if proc.wait() != 0:
                print(f"error: a worker exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            with open(result) as f:
                results.append(json.load(f))
    lines = _compare(*results)
    for tree, result in zip((args.parent, args.change), results):
        lines += _cached_vs_uncached(tree, result)
    for line in lines:
        print(line)
    manifests = len(results[0]) // len(MODES)
    files = sum(len(r["files"]) for r in results[0].values())
    print(f"{manifests} manifests at seed {args.seed}, {len(MODES)} runs each "
          f"({', '.join(MODES)}), {files} output files per tree: "
          + ("all byte-identical" if not lines
             else f"{len(lines)} differences"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
