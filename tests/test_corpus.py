"""Replay tests/corpus/calls.jsonl: every call there must give, in process,
the exit code and the stdout and stderr bytes it gave when the file was
written (see tests/corpus/make.py)."""

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from itertools import zip_longest

import pytest

from corpus import make
from corpus.make import GOLDEN, differs, entry, load, run


def _replay(docs: list[dict], outcomes=None) -> list[str]:
    """Every report on ``docs``: each stored call that differs, their count,
    then whether make.calls() still draws exactly their argvs.  ``outcomes``
    are the calls' run() results in stored order, by default run here one
    after another.  The calls are replayed first because calls() draws some
    argvs through the library, so a fault there also shows as a list
    mismatch."""
    if outcomes is None:
        outcomes = (run(doc["argv"]) for doc in docs)
    reports = [report for doc, outcome in zip(docs, outcomes) if (report := differs(doc, *outcome))]
    if reports:
        reports.append(f"{len(reports)} of {len(docs)} calls differ")
    stored = [doc["argv"] for doc in docs]
    try:
        drawn = make.calls()
    except Exception:
        reports.append(f"calls() raised:\n{traceback.format_exc()}")
        return reports
    # an edit to calls() that was never regenerated, or a library change to
    # an argv it draws
    lines = [i for i, pair in enumerate(zip_longest(stored, drawn), 1) if pair[0] != pair[1]]
    if lines:
        reports.append(
            f"calls() no longer draws the stored argvs: {len(lines)} lines differ, the first {lines[0]}"
        )
    return reports


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(make.ROOT)  # the --input calls name files from here
    docs = load()
    assert len(docs) > 500
    # the calls are independent, so they run over one worker process a CPU;
    # spawned workers start from a fresh import and take this process's
    # sys.path, working directory and environment
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count() or 1, mp_context=context) as pool:
        outcomes = list(pool.map(run, [doc["argv"] for doc in docs]))
    if reports := _replay(docs, outcomes):
        pytest.fail("\n".join(reports))


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

    def raising():
        raise OverflowError("drawn through a broken library")

    # calls() is drawn only after every stored call has been replayed
    monkeypatch.setattr(make, "calls", raising)
    report, count, listed = _replay(load()[:30])  # the crashing call is the first
    assert report.startswith("differs: solve 2 -5 2 -1 1 -1\nexit raised OverflowError, stored 0\n")
    assert report.endswith("+OverflowError: int too large to convert to float\n")
    assert count == "1 of 30 calls differ"
    assert listed.startswith("calls() raised:\nTraceback")
    assert listed.endswith("OverflowError: drawn through a broken library\n")


def test_write_leaves_the_corpus_untouched_when_a_call_raises(monkeypatch, tmp_path, capsys):
    corpus = tmp_path / "calls.jsonl"
    corpus.write_text("stored\n")
    crash = ["solve", "--format", "json", *GOLDEN]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # put back after write() moves to the root
    monkeypatch.setattr(make, "CORPUS", corpus)
    monkeypatch.setattr(make, "calls", lambda: [["solve", *GOLDEN], crash])
    _crash_on(monkeypatch, crash)
    assert make.write() == 1
    assert corpus.read_text() == "stored\n"
    err = capsys.readouterr().err
    assert err.startswith("raised OverflowError: solve --format json 2 -5 2 -1 1 -1\nTraceback")
    assert err.endswith(f"1 of 2 calls raised; {corpus} is unchanged\n")
