"""The block formatter of fogbandit.text against Python's own "%.17g",
element by element, and the CSV rows it assembles, integer columns against
"%d"."""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fogbandit.text import csv_rows, float_text


def texts(kernel, values):
    """The kernel's text of each element, read back from its fields."""
    fields, start, mid, end = kernel(np.asarray(values))
    return [bytes(f[s:m]).decode() + ("." + bytes(f[m:e]).decode() if e > m else "")
            for f, s, m, e in zip(fields.reshape(-1, fields.shape[-1]),
                                  start.ravel(), mid.ravel(), end.ravel())]


def exact_ties():
    """Two floats per exponent X in -4..15 whose 17-digit rounding is an
    exact tie: m / 2**(17 - X) for odd m has exactly 18 significant
    digits, the last one a 5."""
    out = []
    for X in range(-4, 16):
        j = 17 - X
        m = math.ceil(Decimal(10) ** X * 2**j) | 1
        out += [m / 2**j, (m + 2) / 2**j]
    return out


POWERS = [10.0 ** e for e in range(-4, 18)]
EDGES = ([0.0, 1e-4, 9.9999999999999991e-05, 1e-5]
         + POWERS
         + [np.nextafter(p, 0.0) for p in POWERS]
         + [np.nextafter(p, np.inf) for p in POWERS]
         + [float(2**53 - 1), float(2**53), float(2**53 + 1), 2.0**53 + 2]
         + exact_ties()
         + [math.nan, math.inf, 5e-324, sys.float_info.min, sys.float_info.max])


class TestFloatText:
    def test_explicit_edges_of_both_signs(self):
        values = EDGES + [-v for v in EDGES]
        assert texts(float_text, values) == ["%.17g" % v for v in values]

    def test_negative_zero_keeps_its_sign(self):
        assert texts(float_text, [-0.0, 0.0]) == ["-0", "0"]

    def test_the_ties_are_ties(self):
        # the explicit list meets an exact tie at every fixed-point exponent
        for x in exact_ties():
            digits = Decimal(x).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), max_size=40))
    def test_equals_percent_17g(self, values):
        assert texts(float_text, values) == ["%.17g" % v for v in values]

    def test_keeps_the_shape(self):
        fields, start, mid, end = float_text(np.zeros((3, 1, 2)))
        assert fields.shape == (3, 1, 2, 24)
        assert start.shape == mid.shape == end.shape == (3, 1, 2)

    def test_random_blocks(self, rng):
        values = np.concatenate([
            rng.random(4096), rng.normal(0.0, 3.0, 4096),
            np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 4096))
            * rng.choice([-1.0, 1.0], 4096),
            rng.integers(0, 2**64, 4096, dtype=np.uint64).view(np.float64)])
        assert texts(float_text, values) == ["%.17g" % v for v in values.tolist()]


class TestCsvRows:
    def test_equals_a_percent_template(self, rng):
        t = np.arange(1, 7)[:, None, None]
        node, task = np.arange(2)[:, None], np.arange(3)
        x = rng.normal(size=(6, 2, 3))
        x[0] = 0.0
        x[1, 1] = [-np.inf, np.nan, 1e-300]
        y = rng.random((6, 2, 3))
        want = "".join("%d,%d,%d,%.17g,%.17g\n" % (t[i, 0, 0], k, m, x[i, k, m],
                                                  y[i, k, m])
                       for i in range(6) for k in range(2) for m in range(3))
        assert csv_rows((6, 2, 3), [t, node, task, x, y]).tobytes().decode() == want

    def test_integer_columns_alone(self):
        rows = csv_rows((2, 2), [np.arange(2)[:, None], np.array([7, -30])])
        assert rows.tobytes() == b"0,7\n0,-30\n1,7\n1,-30\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**53 + 1, 2**53 - 1), min_size=1, max_size=40))
    def test_integer_columns_below_two_to_the_53_print_as_percent_d(self, values):
        column = np.array(values, dtype=np.int64)
        want = "".join("%d\n" % v for v in values)
        assert csv_rows(column.shape, [column]).tobytes().decode() == want
