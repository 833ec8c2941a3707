import contextlib
import io
import json

import pytest

from checks import FINAL, Outputs, check_run, recompute_fingerprint
from pipecraft import cli, synthetic
from pipecraft.corpus import save_dataset


@pytest.fixture
def finished_run(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_dataset(synthetic.messy_corpus(0), corpus)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": str(corpus), "seed": 0, "sampling_rate": 0.2}))
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    return out, recompute_fingerprint(Outputs.read(out), corpus, config)


def test_check_accepts_an_untouched_run(finished_run):
    out, expected = finished_run
    outputs = Outputs.read(out)
    assert check_run(out, expected, first=outputs, cold=outputs) == []


def test_check_rejects_a_tampered_final_dataset(finished_run):
    out, expected = finished_run
    original = Outputs.read(out)
    final = out / FINAL
    lines = final.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["answer"] += " tampered"
    lines[0] = json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    final.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures = check_run(out, expected, first=original, cold=original)
    assert len(failures) == 2
    assert "uncached recompute" in failures[0]
    assert "cold run" in failures[1]


def test_check_rejects_a_changed_report(finished_run):
    out, expected = finished_run
    other = Outputs(report=b"{}", final=Outputs.read(out).final)
    assert check_run(out, expected, first=other) == [
        "report.json differs from the first run of this workload"]
