"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every declared metric is emitted with its unit, that the seed
code passes every reference check, that corrupted outputs are counted as
failures, and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from irislogic import enrollment  # noqa: E402

WORKLOADS = ["calibrate", "enroll", "verify"]


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_declared_metrics_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench(["--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert "metric failed_ratio=0.0 ratio" in proc.stdout
        assert all(result["metrics"][k]["value"] > 0 for k in declared)


def _tiny(name, tmp_path):
    w = workloads.WORKLOADS[name](workloads.SIZES["tiny"][name])
    inp = w.setup(11, str(tmp_path))
    return w, inp


def _failures(w, inp, passes, work):
    tally = workloads.Tally()
    w.check(inp, passes, str(work), tally)
    assert tally.attempted > 0
    return tally.failed


def test_corrupted_scores_file_is_a_failure(tmp_path):
    w, inp = _tiny("calibrate", tmp_path)
    passes = [w.run_pass(inp, str(tmp_path), run.NULL_TRACER)
              for _ in range(2)]
    assert _failures(w, inp, passes, tmp_path) == 0
    scores = tmp_path / "scores.csv"
    lines = scores.read_text().split("\n")
    pair_id, label, score = lines[5].split(",")
    lines[5] = f"{pair_id},{label},{float(score) + 2 ** -20!r}"
    scores.write_text("\n".join(lines))
    # the content check fails, and so does byte identity across passes
    assert _failures(w, inp, passes, tmp_path) >= 2


def test_corrupted_cli_output_is_a_failure(tmp_path):
    w, inp = _tiny("enroll", tmp_path)
    passes = [w.run_pass(inp, str(tmp_path), run.NULL_TRACER)
              for _ in range(2)]
    assert _failures(w, inp, passes, tmp_path) == 0
    code, out, err = passes[1].cli_results[0]
    passes[1].cli_results[0] = (code, out.replace("gallery_size=", "size="),
                                err)
    assert _failures(w, inp, passes, tmp_path) == 1


def test_wrong_scores_from_the_program_are_failures(tmp_path, monkeypatch):
    w, inp = _tiny("verify", tmp_path)
    honest = enrollment.similarity
    # a score shift of 0.03 moves every pair near a threshold across it
    monkeypatch.setattr(enrollment, "similarity",
                        lambda a, b: min(1.0, honest(a, b) + 0.03))
    passes = [w.run_pass(inp, str(tmp_path), tracing.NullTracer())]
    assert _failures(w, inp, passes, tmp_path) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "verify", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error=program_missing" in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
