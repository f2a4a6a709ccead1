"""scripts/bench_pairs.py, driven through a stub in place of perfbench/run.py."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    """The script as a module whose runs come from `bench.results`: per tree,
    a list of (wall_s, correct, failed) handed out in order; each call is
    logged in `bench.calls`."""
    path = REPO_ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls, module.results = [], {}

    def stub(tree, workload, seed, seconds):
        module.calls.append((tree, workload, seed, seconds))
        wall, correct, failed = module.results[tree].pop(0)
        metrics = {"wall_s": wall, "work_per_s": 1.0 / wall, "setup_s": 0.1,
                   "peak_rss_mb": 38.0}
        return {"correct": correct, "attempted": 5, "failed": failed,
                "metrics": {m: {"value": v, "unit": "-"} for m, v in metrics.items()}}

    monkeypatch.setattr(module, "run_benchmark", stub)
    return module


def argv(out, pairs):
    return ["P", "C", "--workload", "simulate-k32", "--pairs", str(pairs), "--seconds", "30",
            "--seed", "2", "--out", str(out)]


def test_pairs_alternate_and_summarize(bench, tmp_path):
    bench.results = {"P": [(0.050, True, 0), (0.040, True, 0), (0.046, True, 0)],
                     "C": [(0.045, True, 0), (0.041, True, 0), (0.043, True, 0)]}
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept", "workloads": {"verify": {"x": 1}}}))
    assert bench.main(argv(out, 3)) == 0
    # pair i runs the parent first when i is odd
    assert [call[0] for call in bench.calls] == ["P", "C", "C", "P", "P", "C"]
    assert {call[1:] for call in bench.calls} == {("simulate-k32", 2, 30.0)}
    record = json.loads(out.read_text())
    assert record["what"] == "kept" and record["workloads"]["verify"] == {"x": 1}
    result = record["workloads"]["simulate-k32"]["trace0_seed2_30s"]
    assert [(p["pair"], p["first"]) for p in result["pairs"]] == [
        (1, "parent"), (2, "change"), (3, "parent")]
    assert result["pairs"][1]["parent"]["metrics"]["wall_s"]["value"] == 0.040
    assert result["median"]["parent"]["wall_s"] == 0.046
    assert result["median"]["change"]["wall_s"] == 0.043
    assert result["median"]["change"]["setup_s"] == 0.1
    assert result["parent_iqr"]["wall_s"] == pytest.approx(0.010)
    assert [d["wall_s"] for d in result["difference"]] == pytest.approx([-0.005, 0.001, -0.003])
    assert result["change_lower"]["wall_s"] == 2 and result["change_higher"]["wall_s"] == 1
    assert result["change_lower"]["work_per_s"] == 1
    assert result["change_higher"]["work_per_s"] == 2
    assert result["change_lower"]["peak_rss_mb"] == result["change_higher"]["peak_rss_mb"] == 0


@pytest.mark.parametrize("bad", [(0.04, False, 0), (0.04, True, 1)],
                         ids=["incorrect", "failed"])
def test_a_bad_result_is_refused(bench, tmp_path, capsys, bad):
    bench.results = {"P": [(0.05, True, 0), (0.05, True, 0)], "C": [(0.04, True, 0), bad]}
    out = tmp_path / "bench.json"
    assert bench.main(argv(out, 2)) == 1
    assert "pair 2, change" in capsys.readouterr().err
    assert not out.exists()
