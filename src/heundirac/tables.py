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
Both read only N's last four digits, held as exact doubles: for q = 10
... 10**4, low mod q is low - floor(low * fl(1/q)) q, exact because
fl(1/q) > 1/q and low < 10**4, so no int64 array is divided by an array.
A fixed-point "repr" (-4 <= p < 16) is a byte permutation of the
exponential cell.  Each run of 64 or more rows of one exponent is
permuted in place through its slice: r is sorted and f, g are smooth,
so most rows of a table lie in such runs.  The rows left over take one
gather per exponent, so a column without runs costs no more than that.
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
_EXPONENT = np.uint64(0x7FF << 52)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_WORD = np.dtype("<u4")  # a cell is 6 little-endian words: byte i is character i
_QUAD = (np.arange(10000)[:, None] // (1000, 100, 10, 1) % 10 + 48).astype(np.uint8).view(
    _WORD).ravel()                         # 0..9999 -> their 4 digits
_EXP = np.frombuffer(b"".join(f"{e:+03d}".encode().ljust(4, b"\0")
                              for e in range(-400, 400)), _WORD)  # e + 400 -> e+XX
_LEAD = (_QUAD[:100] >> 8 & 0xFF00) | (46 << 16) | (_QUAD[:100] & 0xFF000000)  # NUL, d0, '.', d1
_TAIL = (_QUAD[:1000] >> 8) | (101 << 24)  # 0..999 -> their 3 digits, 'e'
_KEEP = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF], _WORD) | (101 << 24)  # keep - 14 -> its mask
_DROP_Q = 10.0 ** np.arange(5)             # q = 10**drop, and fl(1/q)
_DROP_INV = 1 / _DROP_Q
_FORMAT = {"e": lambda v: f"{v:.16e}", "repr": json.dumps}


def _split(a):
    hi = _SPLIT * a
    rest = hi - a
    hi -= rest                             # c - (c - a), c = _SPLIT * a
    return hi, np.subtract(a, hi, out=rest)


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
    i = (16 - _K0) - p
    hi, hh, hl = _POW_HI[i], _POW_HH[i], _POW_HL[i]
    ah, al = _split(a)
    prod = a * hi
    err = ah * hh
    err -= prod                            # the sums of the two-product, in order
    err += np.multiply(ah, hl, out=ah)
    err += np.multiply(al, hh, out=hh)
    err += np.multiply(al, hl, out=hl)
    err += np.multiply(a, _POW_LO[i], out=al)
    whole = np.floor(err)
    n = prod.astype(np.int64)
    n += whole.astype(np.int64)
    err -= whole
    return n, err, hi


def _dropped(n, frac, half_gap, fast):
    """How many of the 17 digits of n + frac the shortest form drops (0..3),
    and the last four digits of n as doubles: the form of 17 - k digits
    nearest to it reads back as x when it lies within half_gap, and if it
    does not, no shorter form does.  Clears `fast` where a comparison is
    closer than _MARGIN, or where 13 digits would do."""
    low = (n - n // 10000 * 10000).astype(np.float64)
    drop = np.zeros(len(n), np.int8)
    for q in (10, 100, 1000, 10000):
        rem = low - np.floor(low * (1 / q)) * q if q < 10000 else low.copy()
        rem += frac                        # above the nearest form below
        rem -= q / 2
        tie = np.abs(rem, out=rem)         # the nearest form is q/2 - tie away
        gap = np.subtract(q / 2, half_gap)
        drop += tie > gap
        gap = np.abs(np.subtract(gap, tie, out=gap), out=gap)
        fast &= np.minimum(tie, gap, out=gap) >= _MARGIN
    fast &= drop < 4                       # 13 digits or fewer: left to Python
    return drop, low


def _exponential(words, n17, keep, p, negative) -> None:
    """Write into words the cells '-d.ddde-XX' of 17-digit integers, digit i
    kept for i < keep (all 17 when keep is None)."""
    t = n17 // 1000
    words[:, 4] = _TAIL[n17 - t * 1000]    # digits 14..16, 'e'
    if keep is not None:
        words[:, 4] &= _KEEP[keep - 14]
    for w in (3, 2, 1):                    # digits 10..13, 6..9, 2..5
        u = t // 10000
        words[:, w] = _QUAD[t - u * 10000]
        t = u
    words[:, 0] = _LEAD[t]
    words[:, 0] |= negative * np.uint32(45)   # '-'
    words[:, 5] = _EXP[p + 400]


# Fixed-point text as a byte permutation of the exponential cell of the same
# digits: byte 2 holds '.', byte 23 is NUL (|p| < 100), and for p < 0 byte
# 21 holds '0' (the exponent's first digit).
_FIXED = {p: np.array([0, 1, *range(3, p + 3), 2, *range(p + 3, 19)] + [23] * 5)
          for p in range(16)}              # d.ddde+p -> dd.d
_FIXED.update({-s: np.array([0, 21, 2, *[21] * (s - 1), 1, *range(3, 19)] + [23] * (5 - s))
               for s in range(1, 5)})      # d.ddde-s -> 0.00dd
_RUN = 64                                  # rows of one exponent permuted as a slice


def _fixed_layout(out, p, fixed) -> None:
    """Permute the cells of the rows in `fixed` into fixed-point text: each
    run of _RUN or more rows of one exponent through its slice, the rows
    left over by a gather per exponent."""
    code = np.where(fixed, p, 16)          # 16: not fixed
    cut = np.flatnonzero(code[1:] != code[:-1]) + 1
    starts, ends = np.concatenate(([0], cut)), np.concatenate((cut, [len(code)]))
    long = ends - starts >= _RUN
    for s, t in zip(starts[long].tolist(), ends[long].tolist()):
        e = int(code[s])
        if e < 16:
            sub = out[s:t]
            sub[:] = sub[:, _FIXED[e]]
            fixed[s:t] = False
    rows = np.flatnonzero(fixed)
    exps = p[rows]
    for e in (np.flatnonzero(np.bincount(exps + 4, minlength=20)) - 4).tolist():
        sel = rows[exps == e]
        out[sel] = out[sel][:, _FIXED[e]]


def cells(x, style: str) -> np.ndarray:
    """The text of each element of x in `style` ("e" or "repr"), as a
    (len, 24) uint8 array whose NUL bytes are padding; 24 bytes hold the
    longest text of either style, '-2.2250738585072014e-308'."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    return _cells(np.empty((len(x), 6), _WORD), x, style)


def _cells(words, x, style: str) -> np.ndarray:
    """cells(x, style) written into words, a (len(x), 6) uint32 array or a
    view whose rows are contiguous, and returned as its uint8 view."""
    a = np.abs(x)
    fast = (a >= _RANGE[0]) & (a <= _RANGE[1])
    if style == "repr":
        fast &= (x.view(np.uint64) & _MANTISSA) != 0
    a[~fast] = 1.5                         # a placeholder keeps the arithmetic finite
    p = np.floor(np.log10(a)).astype(np.int64)
    n, frac, scale = _scaled(a, p)
    # p one too large (a decade edge), or a 17-digit tie
    fast &= (n >= 10 ** 16) & (np.abs(frac - 0.5) >= _MARGIN)
    if style == "repr":
        # half the gap to the next double, 2**(e - 53) for a = 1.m * 2**e
        half_gap = ((a.view(np.uint64) & _EXPONENT) - (53 << 52)).view(np.float64)
        drop, low = _dropped(n, frac, half_gap * scale, fast)
        # round n to a multiple of q = 10**drop on its last four digits
        q = _DROP_Q[drop]
        rem = low - np.floor(low * _DROP_INV[drop]) * q
        n17 = n + ((rem + frac > q / 2) * q - rem).astype(np.int64)
        fixed = fast & (p >= -4) & (p < 16)
        # a fixed-point form prints the zeros up to the point, and '.0'
        keep = np.where(fixed & (p >= 0), np.maximum(17 - drop, p + 2), 17 - drop)
    else:
        n17, keep, fixed = n + (frac > 0.5), None, None
    fast &= n17 < 10 ** 17                 # rounded up into the next decade
    _exponential(words, np.where(fast, n17, 10 ** 16), keep, p, x < 0)
    out = words.view(np.uint8)
    if fixed is not None:
        _fixed_layout(out, p, fixed)
    fmt = _FORMAT[style]
    for k in np.flatnonzero(~fast).tolist():
        text = fmt(x[k].item()).encode()
        out[k] = 0
        out[k, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def csv_rows(*columns) -> str:
    """One line per index, the columns' f"{v:.16e}" texts joined by commas."""
    width = 25 * len(columns)              # each cell and its ',' or '\n'
    text = bytearray(len(columns[0]) * width)
    rows = np.frombuffer(text, np.uint8).reshape(-1, width)
    for i, c in enumerate(columns):
        rows[:, 25 * i:25 * i + 24] = cells(c, "e")
    rows[:, 24::25] = ord(",")
    rows[:, -1] = ord("\n")
    del rows                               # so the padded text is freed before the decode
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def json_array(x) -> str:
    """json.dumps(list(x)) for a float64 array.  The cells are written in
    place into rows of 7 words whose last holds ', ', between '[' and ']'."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    text = bytearray(28 * len(x) + 8)
    text[0], text[-4] = ord("["), ord("]")
    rows = np.frombuffer(text, _WORD)[1:-1].reshape(len(x), 7)
    rows[:-1, 6] = np.frombuffer(b", \0\0", _WORD)
    _cells(rows[:, :6], x, "repr")
    del rows
    text = text.translate(None, b"\0")
    return text.decode("ascii")
