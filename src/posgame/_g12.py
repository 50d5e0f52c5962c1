"""CSV lines of a 2-D float64 array, each cell byte-identical to ``'%.12g' % x``.

The array is formatted in chunks of whole rows of at most ``CHUNK_CELLS``
cells (one row, if a row is wider), so memory stays bounded by the chunk,
not the array.  Each cell is rounded to 12 significant digits with numpy
(:func:`_round12`); a cell whose rounding the kernel can certify is spelt
out from 4-digit ASCII words, every other cell (nan, inf, scientific
notation, a scaled value that is exactly a half-integer, nearly every
magnitude of 10**11 or more) by Python's own ``'%.12g' % x``, which stays
the reference.

Certification (see :func:`_round12`).  Let e be a guess of the decimal
exponent clipped to [-4, 10], k = 11 - e in [1, 15], so 10**k is an exact
double, and y = fl(|x| * 10**k) the correctly rounded product of the exact
value Y = |x| * 10**k.  Two facts about y below 10**12 + 0.5 < 2**40: doubles
there are spaced at most 2**-13 apart, so |y - Y| <= 2**-14; and every
half-integer is a double, so, rounding being monotone, y and Y lie on the
same side of each half-integer unless y is one.  A cell is certified when

    (1) 10**11 - 0.04 <= y < 10**12 + 0.5, and
    (2) y is not a half-integer.

By (2) Y rounds to the same integer N = rint(y) as y, and is no tie; by
(1) 10**11 <= N <= 10**12.  Then, whichever e the guess gave:

- 10**11 <= Y < 10**12: |x| has exponent e and rounds to N * 10**-k;
- Y < 10**11: N = 10**11 and, by (1) and the spacing, Y > 10**11 - 0.041,
  so |x| has exponent e - 1 and its 12 digits, 10 Y in (10**12 - 0.41,
  10**12), round up to 10**e = N * 10**-k;
- Y >= 10**12: N = 10**12 and Y < N + 0.5, so |x| has exponent e + 1 and
  Y / 10 < 10**11 + 0.05 rounds to 10**(e + 1) = N * 10**-k.

So the correctly rounded value is N * 10**-k, whose exponent, e or e + 1,
lies in [-4, 11]: ``%g`` writes it in fixed notation, its integer part
floor(N / 10**k) and its fraction the rest.  The guess (a floor of
``log10``) only makes certification likely; the result never depends on its
accuracy.  Zeros of either sign are certified apart.

Chunk size.  A chunk's largest buffer is its cell array, one byte per minus
sign, dot and comma slot and four per 4-digit word: at most 1 + 3 * 4 + 1 +
4 * 4 + 1 = 31 bytes a cell (a negative cell, integer parts up to 12 digits,
fractions down to 15 digits); its bytes copy is as large and the text no
larger, and every numeric array holds 8 bytes a cell.  At 4,096 cells that
is under 2**17 bytes, glibc's default threshold for serving an allocation
from its own mapping, so formatting a large table reuses heap memory chunk
after chunk instead of mapping and faulting in fresh pages for each.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

CHUNK_CELLS = 4096


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


_MINUS, _DOT, _COMMA, _NEWLINE, _HOLE = b"-.,\n\x01"
_POW10 = np.array([10.0**k for k in range(17)])  # exact
_WORD_POWERS = np.array([10**12, 10**8, 10**4, 1])[:, None]
_INT_VARIANTS = np.array([_LEAD, _LEAD, _UNIT])[:, None]
_FRACTION_SCALE = _POW10[16 - np.arange(16)]  # k -> 10**(16 - k)


def _round12(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell's 12 significant digits as (N, k, ok): the integer N in
    [10**11, 10**12], a float, and k in [1, 15] with |x| rounding to
    N * 10**-k, and where that is certified (see the module docstring).
    Zeros are ok with N = 0; N is arbitrary where not ok."""
    y = np.abs(x)
    with np.errstate(all="ignore"):  # log10(0); nan and inf, cast and subtracted
        k = np.log10(y)
        np.subtract(11.0, k, out=k)
        np.ceil(k, out=k)  # 11 - floor(log10|x|)
        k = k.astype(np.intp)
        np.minimum(k, 15, out=k)
        np.maximum(k, 1, out=k)
        np.multiply(y, _POW10.take(k), out=y)
        n = np.rint(y)
        ok = y >= 1e11 - 0.04
        ok |= y == 0.0
        ok &= y < 1e12 + 0.5
        np.subtract(y, n, out=y)
        np.abs(y, out=y)
        ok &= y != 0.5
    return n, k, ok


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The bytes of every cell of ``x`` as a (cells, width) uint8 array, NUL
    where a byte is dropped, and the mask of the cells left to ``%`` (None
    if there is none).  Such a cell's bytes are NUL but a 0x01 placeholder
    before its comma or newline."""
    n, k, ok = _round12(x.ravel())
    holes = None if ok.all() else ~ok
    if holes is not None:
        n[holes] = 0.0
    # Integer part and fraction, exactly: n / 10**k <= 10**(12 - k) is
    # rounded by under 10**-k / 2, the least gap between a non-integer
    # quotient and the next integer, so its floor is exact; the rest, under
    # 10**k, times 10**(16 - k) is an integer under 10**16 whose odd part,
    # under 2**k * 5**16, fits the 53-bit significand.
    scale = _POW10.take(k)
    whole = np.floor(n / scale)
    np.multiply(whole, scale, out=scale)
    np.subtract(n, scale, out=n)
    np.multiply(n, _FRACTION_SCALE.take(k), out=n)
    fraction = n.astype(np.int64)  # 16 digits, under 10**16
    # Only the words some cell of the chunk needs get a slot: the integer
    # part has up to 12 digits, the fraction up to k.
    int_words = (len(str(int(whole.max()))) + 3) // 4
    frac_words = (int(k.max()) + 3) // 4
    minus = np.signbit(x.ravel())
    has_minus = bool(minus.any())
    width = has_minus + 4 * int_words + 1 + 4 * frac_words + 1
    cells = np.empty((n.size, width), dtype=np.uint8)
    if has_minus:
        np.multiply(minus.view(np.uint8), _MINUS, out=cells[:, 0])
    at = has_minus + 4 * int_words
    powers = _WORD_POWERS[-int_words:]
    prefix = whole.astype(np.int64) // powers  # the digits down to each word
    # leading zeros are silent, but a lone integer part 0 is "0"
    _put_words(cells, int(has_minus), prefix, (prefix < 10_000) * _INT_VARIANTS[-int_words:])
    np.multiply((fraction > 0).view(np.uint8), _DOT, out=cells[:, at])
    powers = _WORD_POWERS[:frac_words]
    prefix = fraction // powers
    # no digit below: the word is cut at its last non-zero digit
    _put_words(cells, at + 1, prefix, (prefix * powers == fraction) * _TRAIL)
    cells[:, -1] = _COMMA
    cells.reshape(x.shape + (width,))[:, -1, -1] = _NEWLINE
    if holes is not None:
        cells[holes, :-1] = 0
        cells[holes, -2] = _HOLE
    return cells, holes


def _put_words(cells: np.ndarray, at: int, prefix: np.ndarray, variant: np.ndarray) -> None:
    """Write the 4-digit words of ``prefix``, a (words, cells) array of each
    cell's digits down to each word, most significant first, into the cell
    bytes from ``at`` on, each word in its table variant ``variant``."""
    prefix[1:] -= prefix[:-1] * 10_000  # each word's own 4 digits
    prefix += variant
    words = _word_table().take(prefix, mode="clip")
    cells[:, at:at + 4 * len(prefix)].view(np.uint32)[...] = words.T


def _chunk_text(x: np.ndarray) -> str:
    """The CSV lines of the rows of ``x``, each ending in a newline."""
    cells, holes = _cells(x)
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    if holes is None:
        return text
    pieces, start = [], 0
    for value in x.ravel()[holes].tolist():  # row-major, the order of the placeholders
        hole = text.find("\x01", start)
        pieces += (text[start:hole], "%.12g" % value)
        start = hole + 1
    pieces.append(text[start:])
    return "".join(pieces)


def chunk_rows(width: int) -> int:
    """Rows per chunk of a block ``width`` cells wide: as many whole rows as
    fit in ``CHUNK_CELLS`` cells, and at least one."""
    return max(1, CHUNK_CELLS // width)


def format_rows(block: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float64 array, chunk by chunk, each line ending
    in a newline and each cell byte-identical to ``'%.12g' % x``."""
    step = chunk_rows(block.shape[1])
    for start in range(0, block.shape[0], step):
        yield _chunk_text(block[start:start + step])
