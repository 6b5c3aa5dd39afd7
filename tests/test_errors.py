"""The package's one size rule, ``errors.check_dense_budget``."""

from __future__ import annotations

import pytest

from fieldcover.errors import _MAX_GRAM_BYTES, GramTooLargeError, check_dense_budget


def test_budget_admits_the_cap_and_names_one_byte_more_exactly():
    check_dense_budget(_MAX_GRAM_BYTES, "a matrix at the cap")
    with pytest.raises(GramTooLargeError) as raised:
        check_dense_budget(_MAX_GRAM_BYTES + 1, "a matrix one byte over; use fewer rows")
    # the need reads as more than the cap, not as "2.00 GiB"
    assert str(raised.value) == (
        "need 2,147,483,649 bytes, above the 2 GiB cap, for a matrix one byte over; use fewer rows"
    )


def test_budget_message_of_the_smallest_refused_fit():
    # 11,585 fit rows: two matrices of 8-byte entries, n^2 and (n + 1)^2
    n = 11_585
    with pytest.raises(GramTooLargeError, match=r"^need 2,147,580,968 bytes, above the 2 GiB cap, for "):
        check_dense_budget(8 * (n * n + (n + 1) ** 2), "a fit")
