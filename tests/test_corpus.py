"""Replay tests/corpus/calls.jsonl: every call there must give, in process,
the exit code and the stdout and stderr bytes it gave when the file was
written (see tests/corpus/make.py)."""

import difflib

from corpus.make import load, run, sha256


def _differs(doc: dict, code: int, out: str, err: str) -> str | None:
    """What differs between a stored call and its replay, or None."""
    if code != doc["exit"]:
        return f"exit {code}, stored {doc['exit']}"
    for name, text in (("stdout", out), ("stderr", err)):
        if sha256(text) == doc[name + "_sha256"]:
            continue
        if name not in doc:
            return f"{name} differs from its stored hash"
        diff = difflib.unified_diff(
            doc[name].splitlines(keepends=True),
            text.splitlines(keepends=True),
            f"stored {name}",
            f"replayed {name}",
        )
        return "".join(diff)
    return None


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    docs = load()
    assert len(docs) > 500
    for doc in docs:
        differs = _differs(doc, *run(doc["argv"]))
        assert differs is None, f"{doc['argv']}:\n{differs}"
