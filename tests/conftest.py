from __future__ import annotations

import sys

import pytest

from conicpoints import intmath


@pytest.fixture
def default_int_str_limit():
    """Python's default int/str digit limit, 4,300, while the test runs."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture
def factoring_units(monkeypatch):
    """The units each intmath._factorize call spends, read off its meter
    when it returns or raises, in call order."""
    factorize = intmath._factorize
    spent = []

    def recording(n, meter):
        try:
            return factorize(n, meter)
        finally:
            spent.append(intmath._BUDGET - meter.left)

    monkeypatch.setattr(intmath, "_factorize", recording)
    return spent
