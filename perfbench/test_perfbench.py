"""Tests of the benchmark harness itself; they time nothing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name: str):
    sys.path.insert(0, HERE)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(HERE, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run = _load("run")
tr = run.tr
wl = run.wl


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_mode_passes_and_catches_a_corrupted_reference():
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["corrupt_failed_frac"]["value"] > 0


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _s) in run.PER_LAYER.items()}
    assert "setup_s" in run.END_TO_END


def test_the_harness_leaves_numpy_to_the_timed_import():
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_every_item_has_a_reference():
    refs = wl.load_references()
    items = [i for w in wl.WORKLOADS for v in range(wl.VARIANTS) for i in wl.items_for(w, v)]
    items += [i for w in wl.WORKLOADS for i in wl.smoke_items(w)]
    assert [wl.key(i) for i in items if wl.key(i) not in refs] == []
    # criterion 5 stays a standing failure: B4 exits 1 with 78 failing rows
    b4 = refs[wl.key(wl.items_for("scan_dense", 0)[2])]
    assert b4["exit"] == 1 and "failures=78 min_margin=-0.74147483369134903 at=59753" in b4["stdout"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and "{" not in done.stdout


def test_self_time_subtracts_children_and_the_union_of_worker_spans():
    spans = [
        tr.Span("verify.scan_bound", 0.0, 10.0, 0, -1, True, 0, 0),
        tr.Span("sieve.iter_segments", 1.0, 3.0, 1, 0, True, 0, 5),
        tr.Span("analytic.li_vec", 4.0, 6.0, 2, -1, False, 0, 7),
        tr.Span("analytic.li_vec", 5.0, 8.0, 3, -1, False, 0, 7),
    ]
    own = tr.self_times(spans)
    assert own[0] == 10.0 - 2.0 - 4.0
    assert own[1] == 2.0 and own[2] == 2.0 and own[3] == 3.0


def test_tracer_wraps_every_importer_and_restores_the_originals():
    import zetalab.arith
    import zetalab.sieve
    import zetalab.verify

    original = zetalab.sieve.iter_segments
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert zetalab.arith.iter_segments is zetalab.verify.iter_segments is not original
        assert zetalab.arith.pi_count(1000) == 168
    finally:
        tracer.uninstall()
    assert zetalab.arith.iter_segments is zetalab.verify.iter_segments is original
    assert tracer.unmeasured == []
    s = tr.summarize(tracer.take())
    assert s["sieve.iter_segments"]["work"] == 1001 and s["sieve.iter_segments"]["segments"] == 1


def test_a_missing_entry_point_is_unmeasured_not_zero():
    eps = (tr.EntryPoint("sieve", "no_such_function", "sieve.iter_segments", generator=True),)
    tracer = tr.Tracer(eps)
    tracer.install()
    tracer.uninstall()
    res = wl.PassResult(0.0)
    m = run.layer_metrics(res, [], [], 0.0, tracer.unmeasured)
    assert tracer.unmeasured == ["sieve.iter_segments"]
    assert m["sieve.busy_s"] is None and m["sieve.ints"] is None
    assert m["analytic.li_vec.points"] == 0
