"""Exact "%.17g" text for numpy blocks, assembled into CSV rows.

A float x whose decimal exponent X = floor(log10|x|) lies in [-4, 16]
prints in fixed notation from its 17 significant digits N, the integer
nearest to |x| * 10**(16 - X). For those exponents 10**(16 - X) is exact,
and Dekker's error-free product (Veltkamp splitting) gives the product
exactly as hi + lo, so N = hi + floor(lo) + (frac(lo) > 0.5) is the
correctly rounded significand that CPython's dtoa prints (Dekker, Numer.
Math. 1971; Gay, 1990). Zeros take the same path. The other elements go
through "%.17g" itself: nan, inf, |x| < 1e-4, |x| >= 1e17, an exact
product outside [1e16, 1e17) (log10 one off near a power of ten, or a
carry into an 18th digit) and an exact tie.

Each element becomes a SLOT-byte field of digits, written four at a time
from a table, with bounds that split it into an integer part and a
fraction. `csv_rows` lays the parts of a block's fields side by side with
the '.'s and separators, in one byte matrix, and keeps only the bytes
inside the bounds.
"""

from __future__ import annotations

from itertools import chain, product

import numpy as np

SLOT = 24       # bytes per field: the widest "%.17g" is -2.2250738585072014e-308

_POW10 = np.array([float(10**e) for e in range(21)])    # exact up to 1e22
_SPLITTER = 2.0 ** 27 + 1


def _split(a):
    """Veltkamp: a == hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


# The tables are built from Python bytes, which keeps the import's memory
# down: "0000" .. "9999", one little-endian word each, so one lookup writes
# four digits, and the number of trailing '0's in each.
_QUAD_TEXT = bytes(chain.from_iterable(product(b"0123456789", repeat=4)))
_QUADS = np.frombuffer(_QUAD_TEXT, "<u4")
_TRAILING_ZEROS = np.frombuffer(
    bytes(4 - len(_QUAD_TEXT[i:i + 4].rstrip(b"0")) for i in range(0, 40000, 4)),
    np.int8)
_POW10_HI, _POW10_LO = _split(_POW10)
# row start * (SLOT + 1) + end marks the columns [start, end)
_BEFORE = np.tri(SLOT + 1, SLOT, -1, dtype=bool)         # [start, column]
_SPANS = (~_BEFORE[:, None] & _BEFORE[None]).reshape(-1, SLOT)


def _digits(n):
    """Each 0 <= n < 10**18 as 18 digits in columns 6..23 of a SLOT-byte
    field of '0's, (n.size, SLOT) bytes, and n's five 4-digit groups, the
    most significant first."""
    hi = n // 10**8
    lo = (n - hi * 10**8).astype(np.int32)
    top = hi // 10**8
    mid = (hi - top * 10**8).astype(np.int32)
    mid_hi, lo_hi = mid // 10**4, lo // 10**4
    groups = (top.astype(np.int32), mid_hi, mid - mid_hi * 10**4,
              lo_hi, lo - lo_hi * 10**4)
    words = np.empty((len(n), 6), "<u4")
    words[:, 0] = _QUADS[0]
    for i, g in enumerate(groups):
        words[:, i + 1] = _QUADS.take(g)
    return words.view(np.uint8), groups


def _fallback(values, bad, fields, start, mid, end):
    """Python's own "%.17g" text for the elements marked `bad`."""
    at = np.flatnonzero(bad)
    if at.size:
        texts = [b"%.17g" % x for x in values[at].tolist()]
        fields[at] = np.frombuffer(b"".join(t.ljust(SLOT) for t in texts),
                                   np.uint8).reshape(-1, SLOT)
        start[at] = 0
        mid[at] = end[at] = [len(t) for t in texts]


def _significand(a, X):
    """N, the integer nearest to each a * 10**(16 - X), and whether N is
    its correctly rounded 17-digit significand: the exact product lies in
    [1e16, 1e17), N < 1e17 and the product is no tie. The product is
    Dekker's hi + lo; the temporaries end with the call."""
    k = 16 - X
    hi = a * _POW10.take(k)
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    lo_int = np.floor(lo)
    frac = lo - lo_int
    n = hi.astype(np.int64) + lo_int.astype(np.int64) + (frac > 0.5)
    ok = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (n < 10**17) & (frac != 0.5)
    return n, ok


def float_text(values):
    """'%.17g' % v of each float64 v in `values` as (fields, start, mid,
    end): fields has shape values.shape + (SLOT,) bytes, and at v's index
    its text is fields[start:mid], then '.' and fields[mid:end] if
    end > mid."""
    shape = np.shape(values)
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore"):
        X = np.floor(np.log10(a))                     # -inf at 0, nan at nan
    fast = (X >= -4) & (X <= 16)
    X = np.where(fast, X, 0.0).astype(np.intp)
    n, ok = _significand(np.where(fast, a, 0.0), X)
    ok = (ok & fast) | (a == 0)
    fields, groups = _digits(np.where(ok, n, 0))
    zeros = _TRAILING_ZEROS.take(groups[0])
    for g in groups[1:]:
        zeros = _TRAILING_ZEROS.take(g) + (g == 0) * zeros
    # the 17 digits sit in columns 7..23 after '0's: the integer part is
    # [7, 8 + X), or the '0' in column 7 + X when X < 0, and the fraction
    # runs from 8 + X to the last nonzero digit
    mid = 8 + X
    end = np.maximum(24 - zeros, mid)
    start = 7 + np.minimum(X, 0)
    neg = np.signbit(v) & ok
    start[neg] -= 1
    fields[np.flatnonzero(neg), start[neg]] = ord("-")
    _fallback(v, ~ok, fields, start, mid, end)
    return tuple(x.reshape(shape + x.shape[1:]) for x in (fields, start, mid, end))


def _pieces(columns):
    """Each column's text from one float_text call over all of them, as
    pieces (bytes, keep) with keep marking the bytes that print: the
    integer part, and where any element has a fraction, '.' and the
    fraction. Each piece is cut to the columns that its texts use; the '.'
    piece is (None, keep), its byte left to the caller."""
    fields, start, mid, end = float_text(
        np.concatenate([c.ravel() for c in columns], dtype=float))
    sizes = [c.size for c in columns]
    at = np.cumsum([0] + sizes[:-1])
    int_lo, frac_lo = (np.minimum.reduceat(x, at).tolist() for x in (start, mid))
    int_hi, frac_hi = (np.maximum.reduceat(x, at).tolist() for x in (mid, end))

    def piece(shape, rows, lo, hi, span_start, span_end):
        keep = _SPANS[:, lo:hi].take(span_start[rows] * (SLOT + 1) + span_end[rows],
                                     axis=0)
        return (fields[rows, lo:hi].reshape(shape + (hi - lo,)),
                keep.reshape(shape + (hi - lo,)))

    out = []
    for c, i, lo, hi, flo, fhi in zip(columns, at.tolist(), int_lo, int_hi,
                                      frac_lo, frac_hi):
        rows = slice(i, i + c.size)
        pieces = [piece(c.shape, rows, lo, hi, start, mid)]
        if fhi > flo:
            pieces += [(None, (end[rows] > mid[rows]).reshape(c.shape + (1,))),
                       piece(c.shape, rows, flo, fhi, mid, end)]
        out.append(pieces)
    return out


def csv_rows(shape, columns) -> np.ndarray:
    """The CSV text, as uint8 bytes, of one row per element of `shape` in C
    order, with one field per column; each column broadcasts to `shape`.
    Every column prints as "%.17g" of its float64 values, in one float_text
    call over all columns at their own shapes. An integer column prints as
    "%d" for |n| < 2**53, where "%.17g" % float(n) is "%d" % n; no index or
    count of a run comes near that."""
    pieces, line = [], bytearray()     # line: a row before its pieces go in
    for column in _pieces(columns):
        for data, kept in column:
            pieces.append((len(line), data, kept))
            line += b"." if data is None else bytes(data.shape[-1])
        line += b","
    line[-1:] = b"\n"
    line = np.frombuffer(line, np.uint8)
    row = np.empty(tuple(shape) + line.shape, np.uint8)
    row[...] = line
    keep = np.empty(row.shape, bool)
    keep[...] = (line == ord(",")) | (line == ord("\n"))    # separators print
    for o, data, kept in pieces:
        w = kept.shape[-1]
        if data is not None:
            row[..., o:o + w] = data
        keep[..., o:o + w] = kept
    return row[keep]
