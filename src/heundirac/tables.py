"""Bulk decimal text for float64 arrays: the wavefunction tables.

`cells(x, style)` turns an array into fixed-width ASCII byte cells, one
row per element; NUL bytes in a cell are padding, not text.  Each style
is byte-identical to Python's own formatter, for every double:

    "e"     f"{v:.16e}", 17 significant digits (CSV)
    "repr"  json.dumps(v): the shortest repr, NaN, Infinity, -Infinity (JSON)

Python formats a float with a correctly rounded binary-to-decimal
conversion (Gay 1990) at about 1 us per number.  Here a whole array is
converted at once: |x| is scaled by 10**(16 - p), p = floor(log10 |x|),
with a Dekker (1971) two-product against powers of ten held as
double-double (hi + lo), which gives the 17-digit integer part N and the
remainder to within about 1e-14.  Rounding N is then exact arithmetic:
to 17 digits for "e", and for "repr" to the shortest of 17...14 digits
whose distance to x is below half the gap to the neighbouring double.
An element whose answer is not decided that way is formatted by Python
itself: 0, inf, NaN, |x| outside [1e-270, 1e270], a remainder within
1e-9 of a rounding tie or of the half gap, a value at a decade edge, and
for "repr" a power-of-two mantissa (unequal gaps) or a shortest form of
13 digits or fewer.
"""

from __future__ import annotations

import json

import numpy as np

_RANGE = (1e-270, 1e270)
_K0 = 16 - 271        # the scale exponents 16 - p run over _K0 .. 32 - _K0
_MARGIN = 1e-9        # a remainder this close to a decision point falls back
_MANTISSA = np.uint64((1 << 52) - 1)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_WORD = np.dtype("<u4")  # a cell is 6 little-endian words: byte i is character i
_QUAD = (np.arange(10000)[:, None] // (1000, 100, 10, 1) % 10 + 48).astype(np.uint8).view(
    _WORD).ravel()                         # 0..9999 -> their 4 digits
_EXP = np.frombuffer(b"".join(f"{e:+03d}".encode().ljust(4, b"\0")
                              for e in range(-400, 400)), _WORD)  # e + 400 -> e+XX
_TAIL = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF], _WORD)  # digits 14.. kept, by keep - 14
_FORMAT = {"e": lambda v: f"{v:.16e}", "repr": json.dumps}


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten():
    """10**k for k = _K0 .. 32 - _K0 as hi + lo, each correctly rounded,
    with hi split in two halves for the two-product."""
    hi, lo = [], []
    for k in range(_K0, 32 - _K0 + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den                      # int true division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_POW_HI, _POW_HH, _POW_HL, _POW_LO = _powers_of_ten()


def _scaled(a, p):
    """(floor, remainder) of a * 10**(16 - p) to about 1e-14, and 10**(16 - p):
    the Dekker two-product a * hi, plus a * lo."""
    i = 16 - p - _K0
    hi, hh, hl = _POW_HI[i], _POW_HH[i], _POW_HL[i]
    ah, al = _split(a)
    prod = a * hi
    err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl + a * _POW_LO[i]
    whole = np.floor(err)
    return prod.astype(np.int64) + whole.astype(np.int64), err - whole, hi


def _dropped(n, frac, half_gap, fast) -> np.ndarray:
    """How many of the 17 digits of n + frac the shortest form drops (0..3):
    the form of 17 - k digits nearest to it reads back as x when it lies
    within half_gap, and if it does not, no shorter form does.  Clears
    `fast` where a comparison is closer than _MARGIN, or where 13 digits
    would do."""
    low = (n % 10000).astype(np.int32)
    drop = np.zeros(len(n), np.int64)
    for q in (10, 100, 1000, 10000):
        rem = low % q + frac               # above the nearest form below
        tie = np.abs(rem - q / 2)          # the nearest form is q/2 - tie away
        fast &= (tie >= _MARGIN) & (np.abs(tie - (q / 2 - half_gap)) >= _MARGIN)
        drop += tie > q / 2 - half_gap
    fast &= drop < 4                       # 13 digits or fewer: left to Python
    return drop


def _exponential(n17, keep, p, negative) -> np.ndarray:
    """Cells '-d.ddde-XX' of 17-digit integers, digit i kept for i < keep."""
    words = np.empty((len(n17), 6), _WORD)
    t = n17 // 1000
    tail = n17 - t * 1000                  # digits 14..16
    for w in (3, 2, 1):                    # digits 10..13, 6..9, 2..5
        u = t // 10000
        words[:, w] = _QUAD[t - u * 10000]
        t = u
    lead = _QUAD[t]                        # '0', '0', digit 0, digit 1
    words[:, 0] = (np.where(negative, 45, 0).astype(_WORD) | (lead >> 8 & 0xFF00)
                   | (46 << 16) | (lead & 0xFF000000))
    words[:, 4] = (_QUAD[tail] >> 8) & _TAIL[keep - 14] | (101 << 24)
    words[:, 5] = _EXP[p + 400]
    return words.view(np.uint8)


# Fixed-point text as a byte permutation of the exponential cell of the same
# digits: byte 2 holds '.', byte 23 is NUL (|p| < 100), and for p < 0 byte
# 21 holds '0' (the exponent's first digit).
_FIXED = {p: np.array([0, 1, *range(3, p + 3), 2, *range(p + 3, 19)] + [23] * 5)
          for p in range(16)}              # d.ddde+p -> dd.d
_FIXED.update({-s: np.array([0, 21, 2, *[21] * (s - 1), 1, *range(3, 19)] + [23] * (5 - s))
               for s in range(1, 5)})      # d.ddde-s -> 0.00dd


def cells(x, style: str) -> np.ndarray:
    """The text of each element of x in `style` ("e" or "repr"), as a
    (len, 24) uint8 array whose NUL bytes are padding; 24 bytes hold the
    longest text of either style, '-2.2250738585072014e-308'."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= _RANGE[0]) & (a <= _RANGE[1])
    if style == "repr":
        fast &= (x.view(np.uint64) & _MANTISSA) != 0
    a[~fast] = 1.5                         # a placeholder keeps the arithmetic finite
    p = np.floor(np.log10(a)).astype(np.int64)
    n, frac, scale = _scaled(a, p)
    # p one too large (a decade edge), or a 17-digit tie
    fast &= (n >= 10 ** 16) & (np.abs(frac - 0.5) >= _MARGIN)
    n17, keep, fixed = n + (frac > 0.5), 17, None
    if style == "repr":
        drop = _dropped(n, frac, 0.5 * np.spacing(a) * scale, fast)
        q = 10 ** drop
        n17 = (n // q + (n % q + frac > q / 2)) * q
        fixed = fast & (p >= -4) & (p < 16)
        # a fixed-point form prints the zeros up to the point, and '.0'
        keep = np.where(fixed & (p >= 0), np.maximum(17 - drop, p + 2), 17 - drop)
    fast &= n17 < 10 ** 17                 # rounded up into the next decade
    out = _exponential(np.where(fast, n17, 10 ** 16), keep, p, x < 0)
    if fixed is not None:
        for e in (np.flatnonzero(np.bincount(p[fixed] + 4, minlength=20)) - 4).tolist():
            rows = np.flatnonzero(fixed & (p == e))
            out[rows] = out[rows][:, _FIXED[e]]
    fmt = _FORMAT[style]
    for k in np.flatnonzero(~fast).tolist():
        text = fmt(x[k].item()).encode()
        out[k] = 0
        out[k, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _text(columns, sep: bytes, end: bytes) -> str:
    """Rows of cells, separated by sep and each ended by end, NULs dropped."""
    glue = [np.frombuffer(sep, np.uint8)] * (len(columns) - 1) + [np.frombuffer(end, np.uint8)]
    parts = []
    for col, g in zip(columns, glue):
        parts += [col, np.broadcast_to(g, (len(col), len(g)))]
    return np.hstack(parts).tobytes().translate(None, b"\0").decode("ascii")


def csv_rows(*columns) -> str:
    """One line per index, the columns' f"{v:.16e}" texts joined by commas."""
    return _text([cells(c, "e") for c in columns], b",", b"\n")


def json_array(x) -> str:
    """json.dumps(list(x)) for a float64 array."""
    return "[" + _text([cells(x, "repr")], b"", b", ")[:-2] + "]"
