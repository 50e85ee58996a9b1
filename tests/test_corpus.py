"""Replay tests/corpus/calls.jsonl: every call there must give, in process,
the exit code and the stdout and stderr bytes it gave when the file was
written (see tests/corpus/make.py)."""

import pytest

from corpus.make import calls, differs, load, run


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    docs = load()
    assert len(docs) > 500
    # an edit to calls() that was never regenerated
    assert [doc["argv"] for doc in docs] == calls()
    reports = [report for doc in docs if (report := differs(doc, *run(doc["argv"])))]
    if reports:
        pytest.fail("\n".join([*reports, f"{len(reports)} of {len(docs)} calls differ"]))
