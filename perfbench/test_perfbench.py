"""Tests of the benchmark's own code: seeded inputs, span arithmetic, the
tracer's patching, and BENCHMARK.json against the metrics reported.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workload  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _snapshot(inp):
    files = {p.name: p.read_bytes() for p in sorted(inp.root.iterdir())}
    return files, inp.greedy_lines, inp.beam_lines, inp.reanchor, inp.bleu_cands


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    spec = workload.WORKLOADS[name]
    a = _snapshot(workload.Inputs(spec, 5, tmp_path / "a"))
    b = _snapshot(workload.Inputs(spec, 5, tmp_path / "b"))
    c = _snapshot(workload.Inputs(spec, 6, tmp_path / "c"))
    assert a == b
    assert a[0].keys() == c[0].keys()
    assert all(a[0][k] != c[0][k] for k in a[0])


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_tracer_patches_names_imported_elsewhere_and_restores_them():
    from dmt import textnorm, training

    original = textnorm.detokenize
    tr = Tracer()
    tr.install([(textnorm, "detokenize", "textnorm.detokenize", None,
                 lambda a, k, r: tr.count("calls"))])
    try:
        assert training.detokenize is textnorm.detokenize is not original
        assert training.detokenize(["a", ","]) == "a,"
    finally:
        tr.uninstall()
    assert textnorm.detokenize is original and training.detokenize is original
    assert tr.counts == {"calls": 1}
    assert tr.totals()["textnorm.detokenize"][0] == 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workload.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
