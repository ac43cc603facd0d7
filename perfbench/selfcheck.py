"""The benchmark's own tests.  Not collected by the default test run (the file
name does not match ``test_*.py``); run them with

    python3 -m pytest perfbench/selfcheck.py -q

Each workload runs one pass at its full sizes, so this takes about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["solve-cold", "replay-warm", "relative-field"]


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_pass_passes_every_check(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert [ln for ln in lines if ln.startswith("FAILED")] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in _bench()[key]}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace:
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        if workload != "solve-cold":
            assert layer["fekete.solve_fekete.calls"] == 0
        if workload == "replay-warm":
            assert layer["cli.cache_hit_frac"] == 1.0
        if workload == "solve-cold":
            assert layer["cli.cache_hit_frac"] == 0.0
    else:
        for m in _bench()["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        with open(os.path.join(run.WORK, f"result-{workload}-seed7-trace0"
                                         ".json")) as f:
            record = json.load(f)
        # every reported time is a wall time scaled by the reference job
        # run around that manifest
        assert len(record["scales"]) == len(record["wall_latencies"])
        assert record["latencies"] == pytest.approx(
            [t * f for t, f in zip(record["wall_latencies"],
                                   record["scales"])])


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    from pllab import cli
    bench = run.Run("replay-warm", 3, str(tmp_path), cli, check, workloads,
                    speed)
    bench.prepare(0)
    entries = bench.variants[0]
    digests = []
    for traced in (False, True):
        recorder = spans.Recorder()
        if traced:
            recorder.install()
        try:
            out = str(tmp_path / f"out{int(traced)}")
            for i, (_, _, path, _) in enumerate(entries):
                assert cli.main(["--manifest", path, "--out", f"{out}/{i}",
                                 "--cache", bench.cache]) == 0
        finally:
            recorder.uninstall()
        digests.append(check.digest(out))
        assert bool(recorder.calls) is traced
    assert digests[0] == digests[1]


def test_recorder_binds_every_module_attribute():
    from pllab import cli, equidist, fekete, regularity
    recorder = spans.Recorder()
    recorder.install()
    try:
        wrapped = fekete.solve_fekete
        assert cli.solve_fekete is wrapped
        assert regularity.solve_fekete is wrapped
        assert equidist.solve_fekete is wrapped
    finally:
        recorder.uninstall()
    assert cli.solve_fekete is fekete.solve_fekete is not wrapped
    sites = set(recorder.bindings["serialize.canonical_json"])
    assert {"pllab.cli.canonical_json",
            "pllab.serialize.canonical_json"} <= sites


def test_checker_rejects_a_broken_bracket(tmp_path):
    from pllab import cli
    man = {"command": "extremal", "spec": workloads.DISC, "degree": 4,
           "points": [[[2.0, 0.0]], [[0.0, 1.5]]], "cloud_target": 401}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(man))
    out = tmp_path / "out"
    assert cli.main(["--manifest", str(mpath), "--out", str(out)]) == 0
    figures = check.inspect(man, str(out))
    assert figures["oracle"] == (0, 2)
    doc = json.loads((out / "extremal.json").read_text())
    doc["upper"][1] = doc["lower"][1] - 1.0
    (out / "extremal.json").write_text(json.dumps(doc))
    with pytest.raises(check.CheckFailed):
        check.inspect(man, str(out))
    (out / "extremal.csv").unlink()
    with pytest.raises(check.CheckFailed, match="missing"):
        check.inspect(man, str(out))


def test_benchmark_json_lists_every_emitted_layer_metric():
    names = [m["name"] for m in _bench()["per_layer"]]
    assert names == spans.metric_names()
