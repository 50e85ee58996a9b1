"""Replay tests/corpus/calls.jsonl: every call there must give, in process,
the exit code and the stdout and stderr bytes it gave when the file was
written (see tests/corpus/make.py)."""

import os
import sys

import pytest

from corpus import make
from corpus.make import GOLDEN, argv_text, differs, entry, load, outcomes, reports, run


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(make.ROOT)  # the --input calls name files from here
    docs = load()
    assert len(docs) > 500
    found, count_line = reports(docs, outcomes(run, [doc["argv"] for doc in docs]))
    if found:
        pytest.fail("\n".join([*found, count_line]))


def test_report_names_a_long_argument_by_its_size():
    argv = ["oracle", "--bound", str(2**14000), *GOLDEN]
    report = differs(entry(argv, 5, b"", b""), 0, b"", b"")
    assert report == "differs: oracle --bound <4215-digit integer> 2 -5 2 -1 1 -1\nexit 0, stored 5"


def _one_cpu(monkeypatch):
    """Let this process run on one CPU, so that outcomes() runs the calls
    here, where a patch of the corpus's cli_main holds."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _crash_on(monkeypatch, argv):
    """Make the corpus's cli_main raise OverflowError on ``argv`` alone."""
    _one_cpu(monkeypatch)
    true_main = make.cli_main

    def crashing(args):
        if args == argv:
            raise OverflowError("int too large to convert to float")
        return true_main(args)

    monkeypatch.setattr(make, "cli_main", crashing)


def test_a_call_that_raises_is_reported_and_the_replay_goes_on(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _crash_on(monkeypatch, ["solve", *GOLDEN])

    def raising():
        raise OverflowError("drawn through a broken library")

    # calls() is drawn only after every stored call has been replayed
    monkeypatch.setattr(make, "calls", raising)
    docs = load()[:30]  # the crashing call is the first
    (report, listed), count = reports(docs, outcomes(run, [doc["argv"] for doc in docs]))
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


def test_the_pool_has_one_worker_per_cpu_this_process_may_use(monkeypatch):
    # a nested function cannot be sent to a worker process, so outcomes()
    # runs it here only when it counts one CPU
    def here(argv):
        return os.getpid(), argv

    _one_cpu(monkeypatch)  # os.cpu_count() still counts the host's
    assert outcomes(here, [["a"], ["b"]]) == [(os.getpid(), ["a"]), (os.getpid(), ["b"])]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
    assert outcomes(here, [["c"]]) == [(os.getpid(), ["c"])]


def _six_stored(monkeypatch) -> list[dict]:
    """Make the corpus its first six calls, each of which exits 0."""
    docs = load()[:6]
    monkeypatch.setattr(make, "load", lambda: docs)
    monkeypatch.setattr(make, "calls", lambda: [doc["argv"] for doc in docs])
    return docs


def test_replay_reports_each_call_in_stored_order(monkeypatch, capsys):
    docs = _six_stored(monkeypatch)
    first, hung = (" ".join(docs[i]["argv"]) for i in (0, 3))
    monkeypatch.setattr(make, "TIMEOUT", 2)
    # prints its argv, which no call printed; the first call answers after
    # later ones, and the fourth outlives the timeout
    waits = {first: 1, hung: 60}
    script = (
        "import sys, time; argv = ' '.join(sys.argv[1:]); "
        f"time.sleep({waits!r}.get(argv, 0)); print(argv)"
    )
    assert make.replay([sys.executable, "-c", script]) == 1
    out, err = capsys.readouterr()
    assert out == "6 of 6 calls differ\n"
    heads = [line for line in err.splitlines() if line.startswith("differs: ")]
    assert heads == [f"differs: {argv_text(doc['argv'])}" for doc in docs]
    assert f"differs: {argv_text(docs[0]['argv'])}\n--- stored stdout\n" in err
    assert f"\n+{first}\n" in err
    assert f"differs: {argv_text(docs[3]['argv'])}\nno answer within 2 s\n" in err


def test_replay_through_the_package_or_a_missing_command(monkeypatch, capsys):
    _six_stored(monkeypatch)
    assert make.replay([sys.executable, "-m", "conicpoints"]) == 0
    assert capsys.readouterr() == ("0 of 6 calls differ\n", "")
    assert make.replay(["nosuchcommand", "-x"]) == 1
    assert capsys.readouterr() == (
        "",
        "cannot run nosuchcommand -x: [Errno 2] No such file or directory: 'nosuchcommand'\n",
    )


def test_an_empty_replay_command_is_refused_before_any_call(monkeypatch, capsys):
    monkeypatch.setattr(make, "write", lambda: pytest.fail("calls.jsonl regenerated"))
    monkeypatch.setattr(make, "outcomes", lambda *args: pytest.fail("a call ran"))
    for command in ("", "  "):
        assert make.main(["--replay", command]) == 1
        assert capsys.readouterr() == ("", "--replay needs a command to run the calls through\n")
