"""CSV lines of a 2-D float64 array, each cell byte-identical to ``'%.12g' % x``.

The array is formatted in chunks of whole rows of about ``CHUNK_CELLS``
cells, so memory stays bounded by the chunk, not the array.  Each cell is
rounded to 12 significant digits with numpy (:func:`_round12`); a cell whose
rounding the kernel can certify and whose ``%g`` form is fixed notation is
spelt out from 4-digit ASCII words, every other cell (nan, inf, scientific
notation, a scaled value that is exactly a half-integer) by Python's own
``'%.12g' % x``, which stays the reference.

Certification (see :func:`_round12`).  Let e be a guess of the decimal
exponent clipped to [-5, 11], k = 11 - e in [0, 16], so 10**k is an exact
double, and y = fl(|x| * 10**k) the correctly rounded product of the exact
value Y = |x| * 10**k.  Two facts about y below 10**12 + 0.5 < 2**40: doubles
there are spaced at most 2**-13 apart, so |y - Y| <= 2**-14; and every
half-integer is a double, so, rounding being monotone, y and Y lie on the
same side of each half-integer unless y is one.  A cell is certified when

    (1) 10**11 - 0.04 <= y < 10**12 + 0.5,
    (2) y is not a half-integer,
    (3) the final e below lies in [-4, 11].

By (2) Y rounds to the same integer N0 = rint(y) as y, and is no tie; by
(1) 10**11 <= N0 <= 10**12.  Then, whichever e the guess gave:

- 10**11 <= Y < 10**12: |x| has exponent e and rounds to N0 * 10**(e - 11);
- Y < 10**11: N0 = 10**11 and, by (1) and the spacing, Y > 10**11 - 0.041,
  so |x| has exponent e - 1 and its 12 digits, 10 Y in (10**12 - 0.41,
  10**12), round up to 10**e = N0 * 10**(e - 11);
- Y >= 10**12: N0 = 10**12 and Y < N0 + 0.5, so |x| has exponent e + 1 and
  Y / 10 < 10**11 + 0.05 rounds to 10**(e + 1) = N0 * 10**(e - 11).

Setting N = 10**11, e = e + 1 where N0 = 10**12 gives 10**11 <= N < 10**12
and the correctly rounded value N * 10**(e - 11), whose exponent e is the
one ``%g`` tests: fixed notation exactly when -4 <= e < 12, condition (3).
The guess (a floor of ``log10``) only makes certification likely; the
result never depends on its accuracy.  Zeros of either sign are certified
apart.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

CHUNK_CELLS = 8192


# One word per 4 decimal digits, in four variants of 10,000 entries each:
# every digit; leading zeros as NUL; trailing zeros as NUL; and leading zeros
# as NUL but 0 as "0" (the integer part of a value below one).  NUL bytes are
# dropped when a chunk is compacted.
_FULL, _LEAD, _TRAIL, _UNIT = (k * 10_000 for k in range(4))


@functools.cache
def _word_table() -> np.ndarray:
    """The four variants, built on first use: numpy's first calls of the
    ufuncs involved would cost an import about a millisecond."""
    value = np.arange(10_000)[:, None]
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    full = digits + np.uint8(ord("0"))
    lead = full * (value >= np.array([1000, 100, 10, 1]))
    trail = full * (value % np.array([10_000, 1000, 100, 10]) > 0)
    unit = lead.copy()
    unit[0, 3] = ord("0")
    table = np.concatenate([full, lead, trail, unit]).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


# one character and three NULs each; _HOLE marks a cell left to ``%``
_MINUS, _DOT, _COMMA, _NEWLINE, _HOLE = np.frombuffer(
    b"-\0\0\0.\0\0\0,\0\0\0\n\0\0\0\x01\0\0\0", dtype=np.uint32
)
_POW10_FLOAT = np.array([10**k for k in range(17)], dtype=np.float64)  # exact
_POW10_INT = np.array([10**k for k in range(17)], dtype=np.int64)


def _round12(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell's 12 significant digits as (N, e, ok): the integer N in
    [10**11, 10**12) and the exponent e with |x| rounding to N * 10**(e - 11),
    and where that is certified and ``%g`` writes fixed notation (see the
    module docstring).  Zeros are ok with N = 0; e is 0 for zeros and N and
    e are 0 where not ok."""
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.fmin(np.fmax(np.floor(np.log10(ax)), -5.0), 11.0).astype(np.int64)
        y = ax * _POW10_FLOAT[11 - e]
        n0 = np.rint(y)
        top = n0 == 1e12
        e += top
        ok = (y >= 1e11 - 0.04) & (y < 1e12 + 0.5) & (np.abs(y - n0) != 0.5)
    ok &= (e >= -4) & (e <= 11)
    e = np.where(ok, e, 0)
    ok |= x == 0.0
    n = np.where(ok, np.where(top, 1e11, n0), 0.0).astype(np.int64)
    return n, e, ok


def _chunk_text(x: np.ndarray) -> str:
    """The CSV lines of the rows of ``x``, each ending in a newline."""
    words = _word_table()
    n, e, ok = _round12(x)
    scale = _POW10_INT[11 - e]
    whole = n // scale
    frac = (n - whole * scale) * _POW10_INT[e + 5]  # the fraction's 16 digits
    # Only the words some cell of the chunk needs get a column: e bounds
    # the integer digits (e + 1) and the fraction digits (11 - e).
    columns = []
    minus = np.signbit(x) & ok
    if minus.any():
        columns.append(minus * _MINUS)
    rest = whole
    for k in reversed(range(max(1, (int(e.max()) + 4) // 4))):
        unit = 10 ** (4 * k)
        group = rest // unit
        rest = rest - group * unit
        # a placeholder cell keeps its zero integer part silent
        short = _LEAD if k else np.where(ok, _UNIT, _LEAD)
        columns.append(words[np.where(whole >= unit * 10**4, _FULL, short) + group])
    columns.append(np.where(ok, (frac > 0) * _DOT, _HOLE))
    rest = frac
    for j in range((14 - int(e.min())) // 4):
        unit = 10 ** (12 - 4 * j)
        group = rest // unit
        rest = rest - group * unit
        # a word is cut at its last non-zero digit when no digit follows it
        columns.append(words[np.where(rest > 0, _FULL, _TRAIL) + group])
    cells = np.empty(x.shape + (len(columns) + 1,), dtype=np.uint32)
    for k, column in enumerate(columns):
        cells[..., k] = column
    cells[..., -1] = _COMMA
    cells[:, -1, -1] = _NEWLINE
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    if ok.all():
        return text
    pieces, start = [], 0
    for value in x[~ok].tolist():  # row-major, the order of the placeholders
        hole = text.find("\x01", start)
        pieces += (text[start:hole], "%.12g" % value)
        start = hole + 1
    pieces.append(text[start:])
    return "".join(pieces)


def format_rows(block: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float64 array, chunk by chunk, each line ending
    in a newline and each cell byte-identical to ``'%.12g' % x``."""
    step = max(1, CHUNK_CELLS // block.shape[1])
    for start in range(0, block.shape[0], step):
        yield _chunk_text(block[start:start + step])
