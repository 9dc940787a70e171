"""The recorded CLOSED corpus replays unchanged (`tests/closed_corpus.py`).

Every `basis`, `dim` and `compare` run under `--policy CLOSED`, and every
seeded CLOSED `greedy_basis`, must give the exit code and digest recorded for
it, stdout and stderr included, so a change to a CLOSED witness, basis,
dimension or step-cap verdict fails here.  A change of output made on purpose
re-records the corpus and lists the changed entries in CHANGES.md.
"""

import json

from closed_corpus import CORPUS, entries


def test_corpus_replays_unchanged(tmp_path, monkeypatch):
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    replayed = {}
    for label, result in entries():
        assert result == recorded.get(label), f"first differing entry: {label}"
        replayed[label] = result
    assert replayed.keys() == recorded.keys()
    # the corpus holds lists that the chain-search step cap refuses
    refused = [label for label, (code, _) in recorded.items() if code == 2]
    assert any(label.startswith("basis") for label in refused)
    assert any(label.startswith("greedy_basis") for label in refused)
