"""Replay tests/corpus/calls.jsonl: every call there must give, in process,
the exit code and the stdout and stderr bytes it gave when the file was
written (see tests/corpus/make.py)."""

import pytest

from corpus import make
from corpus.make import GOLDEN, calls, differs, entry, load, run


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    docs = load()
    assert len(docs) > 500
    # an edit to calls() that was never regenerated
    assert [doc["argv"] for doc in docs] == calls()
    reports = [report for doc in docs if (report := differs(doc, *run(doc["argv"])))]
    if reports:
        pytest.fail("\n".join([*reports, f"{len(reports)} of {len(docs)} calls differ"]))


def test_report_names_a_long_argument_by_its_size():
    argv = ["oracle", "--bound", str(2**14000), *GOLDEN]
    report = differs(entry(argv, 5, b"", b""), 0, b"", b"")
    assert report == "differs: oracle --bound <4215-digit integer> 2 -5 2 -1 1 -1\nexit 0, stored 5"


def _crash_on(monkeypatch, argv):
    """Make the corpus's main raise OverflowError on ``argv`` alone."""
    true_main = make.main

    def crashing(args):
        if args == argv:
            raise OverflowError("int too large to convert to float")
        return true_main(args)

    monkeypatch.setattr(make, "main", crashing)


def test_a_call_that_raises_is_reported_and_the_replay_goes_on(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _crash_on(monkeypatch, ["solve", *GOLDEN])
    docs = load()[:30]  # the crashing call is the first
    reports = [report for doc in docs if (report := differs(doc, *run(doc["argv"])))]
    (report,) = reports
    assert report.startswith("differs: solve 2 -5 2 -1 1 -1\nexit raised OverflowError, stored 0\n")
    assert report.endswith("+OverflowError: int too large to convert to float\n")


def test_write_leaves_the_corpus_untouched_when_a_call_raises(monkeypatch, tmp_path, capsys):
    corpus = tmp_path / "calls.jsonl"
    corpus.write_text("stored\n")
    crash = ["solve", "--format", "json", *GOLDEN]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(make, "CORPUS", corpus)
    monkeypatch.setattr(make, "calls", lambda: [["solve", *GOLDEN], crash])
    _crash_on(monkeypatch, crash)
    assert make.write() == 1
    assert corpus.read_text() == "stored\n"
    err = capsys.readouterr().err
    assert err.startswith("raised OverflowError: solve --format json 2 -5 2 -1 1 -1\nTraceback")
    assert err.endswith(f"1 of 2 calls raised; {corpus} is unchanged\n")
