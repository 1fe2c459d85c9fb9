"""Golden machine outputs: `run --config DOC --format machine`, byte for byte.

Every shipped `configs/*.json` is covered, plus the documents under
`tests/golden/cases/` for branches the shipped configs do not reach
(odd-rank all-nonzero `verify-bf`, a numeric `verify-js` with an interior
zero, a mixed symbolic/rational `verify-littlewood`, an even-rank
`verify-bf` whose entries include a non-integral fraction, an `lfactor` on a
mixed symbolic/rational vector, a `bf-odd-probe` on an all-nonzero mixed
vector with a non-integral fraction, and an even-rank all-nonzero mixed
`verify-bf` on the non-square window (3, 5), where a factor truncated at the
other order would show, an explicit `galois-divisibility` whose
pair-product factor equals the exterior-square factor, so the quotient is
1, and one whose exterior-square side holds a repeated root, printed twice,
and leaves one root over).  The expected output
of `DIR/NAME.json` is `tests/golden/NAME.out`.

Regenerate, from the repository root, only after a change that is meant
to alter machine output:

    for f in configs/*.json tests/golden/cases/*.json; do
        env -u EXTSQ_TRUNCATION PYTHONPATH=src python -m extsq.cli run \\
            --config "$f" --format machine > "tests/golden/$(basename "$f" .json).out"
    done
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from extsq import tasks
from extsq.cli import main
from oracles import machine_json

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DOCUMENTS = sorted((ROOT / "configs").glob("*.json")) + sorted((GOLDEN / "cases").glob("*.json"))


def test_every_document_has_a_distinct_golden_name():
    names = [doc.stem for doc in DOCUMENTS]
    assert len(names) == len(set(names)) == 14


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.stem)
def test_machine_output_matches_golden(document, monkeypatch, capsys):
    monkeypatch.delenv(tasks.TRUNCATION_ENV_VAR, raising=False)
    code = main(["run", "--config", str(document), "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{document.stem}.out").read_bytes()


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.stem)
def test_golden_reports_re_emit_as_the_oracle_writes_them(document):
    golden = (GOLDEN / f"{document.stem}.out").read_text(encoding="utf-8")
    reports = [
        tasks.Report(r["task"], r["verdict"], r["summary"], r["data"], 0.0)
        for r in json.loads(golden)["reports"]
    ]
    assert tasks.emit_machine(reports) == machine_json(reports) == golden
