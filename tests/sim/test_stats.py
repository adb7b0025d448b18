"""Unit and property tests for statistics containers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Counter, geomean


class TestCounter:
    def test_default_zero(self):
        c = Counter()
        assert c["missing"] == 0
        assert "missing" not in c

    def test_add_and_read(self):
        c = Counter()
        c.add("loads")
        c.add("loads", 4)
        assert c["loads"] == 5
        assert "loads" in c

    def test_merge(self):
        a, b = Counter(), Counter()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a.as_dict() == {"x": 5, "y": 1}

    def test_repr_sorted(self):
        c = Counter()
        c.add("b")
        c.add("a")
        assert repr(c) == "Counter(a=1, b=1)"


class TestGeomean:
    def test_known(self):
        assert geomean([1, 4, 16]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=50))
    def test_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=20), st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariance(self, values, k):
        scaled = geomean([v * k for v in values])
        assert scaled == pytest.approx(geomean(values) * k, rel=1e-6)

    def test_log_identity(self):
        values = [2.0, 8.0, 32.0]
        assert math.log(geomean(values)) == pytest.approx(
            sum(math.log(v) for v in values) / 3)
