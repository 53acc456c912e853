"""Tests for repro.util.validation."""

from __future__ import annotations

import pytest

from repro.util.validation import (
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
    check_type,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2) == 2.0

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", bad)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -1e-9)
        # NaN compares false both ways; it must not slip through as >= 0.
        with pytest.raises(ValueError, match="non-negative"):
            check_nonnegative("x", float("nan"))


class TestCheckFraction:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_fraction("f", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_fraction("f", bad)


class TestCheckType:
    def test_accepts(self):
        assert check_type("x", 5, int) == 5

    def test_rejects_with_message(self):
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "s", int)

    def test_tuple_of_types(self):
        assert check_type("x", 5.0, (int, float)) == 5.0


class TestCheckIn:
    def test_accepts(self):
        assert check_in("mode", "a", ["a", "b"]) == "a"

    def test_rejects(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            check_in("mode", "z", ["a", "b"])
