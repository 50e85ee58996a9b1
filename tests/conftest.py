from __future__ import annotations

import sys

import pytest


@pytest.fixture
def default_int_str_limit():
    """Python's default int/str digit limit, 4,300, while the test runs."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
