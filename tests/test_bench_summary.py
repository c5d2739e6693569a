import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_summary", Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def record(seed, ops_per_s, *, workload="exact-lab", source="abc", failed=0):
    prov = {
        "workload": workload, "seed": seed, "traced": False, "git_commit": None, "source_sha256": source,
        "nproc": 2, "cpu_model": "cpu", "python": "3.11", "numpy": "2.4",
    }
    return {"provenance": prov, "metrics": {"ops_per_s": ops_per_s}, "failed": failed, "attempted": 48}


def test_summary_gives_median_and_iqr_per_workload():
    recs = [record(s, v) for s, v in zip((3, 1, 2, 4, 5), (5.0, 1.0, 2.0, 4.0, 3.0))]
    recs.append(record(9, 7.0, workload="mc-triangles", failed=1))
    out = bench_summary.summarise("x", recs)
    lab = out["workloads"]["exact-lab"]
    assert lab["seeds"] == [1, 2, 3, 4, 5] and lab["runs"] == 5
    assert lab["metrics"]["ops_per_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    mc = out["workloads"]["mc-triangles"]
    assert mc["metrics"]["ops_per_s"]["iqr"] == 0.0 and mc["failed_ops"] == 1
    assert out["provenance"]["source_sha256"] == "abc"


def test_summary_refuses_records_of_different_sources():
    with pytest.raises(ValueError, match="source_sha256"):
        bench_summary.summarise("x", [record(1, 1.0), record(2, 1.0, source="def")])


@pytest.mark.parametrize("label", ["a/b", "", "../x", ".hidden", "-x"])
def test_bad_label_exits_2_and_writes_nothing(label, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path / "root")
    (tmp_path / "root").mkdir()
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(record(1, 1.0)))
    assert bench_summary.main([label, str(rec)]) == 2
    assert "label" in capsys.readouterr().err
    assert not any((tmp_path / "root").iterdir())
    # the label is checked before any record is read
    assert bench_summary.main([label, str(tmp_path / "missing.json")]) == 2
    assert "label" in capsys.readouterr().err
