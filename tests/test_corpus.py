"""Replay tests/corpus/calls.jsonl: every call there must give, in process,
the exit code and the stdout and stderr bytes it gave when the file was
written (see tests/corpus/make.py)."""

from corpus.make import calls, differs, load, run


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    docs = load()
    assert len(docs) > 500
    # an edit to calls() that was never regenerated
    assert [doc["argv"] for doc in docs] == calls()
    for doc in docs:
        report = differs(doc, *run(doc["argv"]))
        assert report is None, report
