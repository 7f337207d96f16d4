"""``BENCHMARK.json`` against the code that emits the metrics."""

import json
import pathlib
import re

from bench import metrics
from bench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_manifest_lists_exactly_what_the_code_emits():
    doc = manifest()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == metrics.per_layer()
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in WORKLOADS]
    assert doc["paths"] == ["bench"]
    assert doc["command"] == ["python3", "bench/run.py"]


def test_names_units_and_counts_fit_the_contract():
    doc = manifest()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = (
        [w["name"] for w in doc["workloads"]]
        + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(
        UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"]
    )
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
