"""Golden outputs: the bytes of frenet, lift, fields and verify must not drift.

Each case runs ``cli.main`` in-process and compares the sha256 of its output
file with a digest pinned from an earlier, trusted build.  A refactor that
leaves the numbers alone passes; one that moves a single rounding step in
any column, or changes a separator, fails here.  The cases and digests live
in ``golden_cases.py``, which also checks them without pytest.
"""

import builtins
import math

import pytest

from frenetlift.cli import EXIT_OK
from golden_cases import GOLDEN, VERIFY, digest


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest(case, tmp_path):
    code, got = digest(case, tmp_path)
    assert code == EXIT_OK
    assert got == GOLDEN[case]


def test_verify_digest(tmp_path):
    code, got = digest("verify-50", tmp_path)
    assert code == EXIT_OK
    assert got == VERIFY["verify-50"]


def test_verify_digest_at_grid_floors(tmp_path):
    code, got = digest("verify-7", tmp_path)
    assert code == EXIT_OK
    assert got == VERIFY["verify-7"]


_plain_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 and later compute it over floats: compensated,
    emulated by math.fsum, and plain where fsum raises on an overflow or an
    infinity of each sign."""
    items = list(iterable)
    if items and all(type(x) is float for x in items):
        try:
            return math.fsum([start, *items])
        except (OverflowError, ValueError):
            pass
    return _plain_sum(items, start)


@pytest.mark.parametrize("case", sorted(GOLDEN) + ["verify"])
def test_digest_independent_of_sum(case, tmp_path, monkeypatch):
    """The pinned bytes hold whether or not the interpreter compensates sum()."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    if case == "verify":
        test_verify_digest(tmp_path)
    else:
        test_output_digest(case, tmp_path)
