"""Exact float64-to-text conversion over whole numpy arrays.

`e16(x)` spells every value as `'%.16e' % v` and `shortest(x)` as
`json.dumps(v)` (`repr(v)` for a finite v), byte for byte, each in one
WIDTH-byte ASCII field per value: the sign or a zero byte, then the text,
with zero bytes that may sit anywhere in it.

The digits come from V = |x| * 10**(16 - k), with 10**k <= |x| < 10**(k+1),
computed in double-double arithmetic from a table 10**s = (hi + lo) * 2**t
built once, with integers, on first use.  V is good to 1e-13, so the
17 rounded digits (`%.16e`) and the shortest digits that read back as x
(`repr`) follow from V alone, except within TOLERANCE of a rounding or
round-trip boundary.  The shortest digits take no search: the round-trip
range of a normal double is under 23 units of V wide, so whether it holds a
multiple of 10, or one of 100, and the trailing zeros of that multiple of 100
give the digit count.  Boundary values, non-finite values, powers of two of
over 15 digits (whose range is lopsided) and subnormals whose range may hold
two multiples of 100 are spelled by Python.  The method is the
fixed-precision half of Ryu-style conversion (Adams, PLDI 2018), done as
array passes.  A `shortest` field is the `e16` field of its digits, without
its point, with bytes cleared and moved per row (see _tables).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

# A field is three little-endian 8-byte words.  As `e16` spells it: the sign,
# d1 and '.' in bytes 0-2, the other 16 digits in bytes 3-18, and 'e', the
# exponent's sign and two or three digits from byte 19 on.  `shortest` starts
# from that field without its point and moves some digits up (see _tables).
WIDTH = 24

# Rows per block, at most: a block of rows_text holds as many whole lines of
# the grid's fastest axis as fit, or BLOCK_ROWS rows of one longer line.
BLOCK_ROWS = 2048
# Rows per piece of text a block is returned in (about 300 bytes a row): whole
# blocks left a process that also parses the output about 1 MiB larger.
PIECE_ROWS = 256

# A value this close (in units of the last of 17 digits) to a rounding or
# round-trip boundary is spelled by Python; the computed V is good to 1e-13.
TOLERANCE = 1e-9

# 10**s for every s = 16 - k a double needs, k in -324..308, with room for
# correcting a misestimated k by one.
_S_MIN, _S_MAX = -300, 345
# Decimal exponents a field can carry: subnormals down to 4.9e-324 up to the
# largest double.
_E_MIN, _E_MAX = -324, 308
_TEN16, _TEN17 = 10**16, 10**17


@functools.cache
def _tables():
    """The power-of-ten table, from integers, and the field layout's byte tables, from broadcasts."""
    # x = floor(10**s * 2**(120 - t)) with 10**s / 2**t in [1, 2): the top 121 bits of v = floor(10**s * 2**1120),
    # from s = _S_MAX down by exact steps of // 10 (a floor of a floor is a floor)
    v, hi, lo, t = 10**_S_MAX << 1120, [], [], []
    for _ in range(_S_MAX - _S_MIN + 1):
        t.append(v.bit_length() - 1121)
        x = v >> (t[-1] + 1000)
        hi.append(float(x))
        lo.append(float(x - int(hi[-1])))
        v //= 10
    hi, lo, t = np.ldexp(np.array(hi[::-1]), -120), np.ldexp(np.array(lo[::-1]), -120), np.array(t[::-1], dtype=np.int64)
    c = 134217729.0 * hi  # hi, then its halves of 26 bits (Veltkamp's split), for _scaled
    hi = np.stack([hi, c - (c - hi), hi - (c - (c - hi))])

    def digit(v, place, at):  # the digit of v at 10**place as ASCII, in byte `at` of a word
        return (v // 10**place % 10 + ord("0")).astype(np.uint64) << np.uint64(8 * at)

    # the digits of each group 0000..9999, in the low half of a word
    v = np.arange(10_000)
    quad = digit(v, 3, 0) | digit(v, 2, 1) | digit(v, 1, 2) | digit(v, 0, 3)
    # 'e', the exponent's sign and its two or three digits, from byte 2 of a word
    e = np.arange(_E_MIN, _E_MAX + 1)
    a, three = np.abs(e), np.abs(e) >= 100
    suffix = (ord("e") << 16 | (ord("+") + 2 * (e < 0)) << 24).astype(np.uint64) | digit(a, 1 + three, 4) | digit(a, three, 5)
    suffix |= np.where(three, digit(a, 0, 6), 0)

    # A `shortest` field by case: each digit count c of d1.d2...dc (axis 1)
    # for each notation (axis 0), scientific (d = -4) or 0.d1d2...dc * 10**d
    # with d = -3..16.  It keeps the bytes `keep` of the field F of its digits
    # (d1...d17 from byte 1), takes the bytes `moved` of F shifted up `shift`
    # bits, and adds `text`: a point or a 0.000 prefix, over bytes b (axis 2).
    d, c, b = np.arange(-4, 17)[:, None, None], np.arange(1, 18)[:, None], np.arange(WIDTH)
    sci, fixed, small = d == -4, d > 0, (-4 < d) & (d <= 0)
    # d1[.d2...dc]e+XX, d1...dd.d(d+1)... (.0 is digit d + 1): digits after the
    # point move up a byte, those not shown are cleared; 0.000d1...: all move up
    keep = sci & ((b < 2) | (b >= 19)) | fixed & (b < d + 1) | small & (b < 1)
    moved = sci & (3 <= b) & (b < c + 2) | fixed & (d + 2 <= b) & (b < np.maximum(c, d + 1) + 2) | small & (3 - d <= b) & (b < c + 3 - d)
    text = np.where(sci & (b == 2) & (c > 1) | fixed & (b == d + 1) | small & (b == 2), ord("."), np.where(small & (1 <= b) & (b < 3 - d), ord("0"), 0))

    # bytes by (notation, count, byte) as little-endian words by (word, case)
    keep, moved, text = (np.broadcast_to(x, (21, 17, WIDTH)).astype(np.uint8).reshape(-1, WIDTH).view("<u8").T.copy()
                         for x in (keep * 0xFF, moved * 0xFF, text))
    shift = np.broadcast_to(np.where(small, 8 * (2 - d), 8), (21, 17, 1)).astype(np.uint64).ravel()
    # by the row of the exponent d - 1: the first case of its notation, less one
    d = np.arange(_E_MIN + 1, _E_MAX + 2)
    notation = 17 * np.where((-3 <= d) & (d <= 16), d + 4, 0) - 1
    return hi, lo, t, quad, suffix, keep, moved, text, shift, notation


def _pow2(e):
    """2.0**e for integers e in -1022..1023, from its bits (np.ldexp is slow)."""
    return ((e + 1023) << 52).view(np.float64)


def _scaled(m, e, k, gap: bool) -> list:
    """[V = m * 2**e * 10**(16 - k) as an int64 part, a fraction in [0, 1)] and,
    if gap, the unit 2**e * 10**(16 - k) to its high part (V is about m * unit)."""
    hi, lo, t = _tables()[:3]
    i = (16 - _S_MIN) - k
    h = hi[0].take(i)
    p = m * h
    c = 134217729.0 * m  # m * h - p exactly (Dekker's two-product), from halves
    m_hi = c - (c - m)
    m_lo = m - m_hi
    tail = m_hi * hi[1].take(i) - p
    for u, v in ((m_hi, hi[2]), (m_lo, hi[1]), (m_lo, hi[2]), (m, lo)):
        tail += np.multiply(u, v.take(i), out=c)
    scale = _pow2(e + t.take(i))  # V = p * scale + tail * scale, each product exact
    p *= scale  # an integer: V >= 1e16 > 2**53 once k is right
    tail *= scale
    carry = np.floor(tail)
    tail -= carry
    return [p.astype(np.int64) + carry.astype(np.int64), tail] + ([np.multiply(h, scale, out=h)] if gap else [])


def _decimal(a, gap: bool) -> list:
    """For finite a > 0 = m * 2**e (np.frexp): [k, with 10**k <= a < 10**(k+1),
    V = a * 10**(16 - k) in [1e16, 1e17) as an int64 part and a fraction, m,
    e] and the unit of _scaled if gap."""
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int64)
    scaled = _scaled(m, e, k, gap)
    for _ in range(2):  # log10 may be off by one near a power of ten: V not in [1e16, 1e17)
        wrong = np.flatnonzero((scaled[0] - _TEN16).view(np.uint64) >= 9 * _TEN16)
        if wrong.size == 0:
            break
        k[wrong] += np.where(scaled[0][wrong] < _TEN16, -1, 1)
        for v, fixed in zip(scaled, _scaled(m[wrong], e[wrong], k[wrong], gap)):
            v[wrong] = fixed
    return [k, *scaled[:2], m, e, *scaled[2:]]


def _shortest(whole, frac, m, e, unit):
    """The shortest digits that read back as m * 2**e: (digits as a 17-digit
    integer with trailing zeros, digit count, values left undecided)."""
    # Half the gap to the neighbouring doubles, in units of V (0.55 to 11.1
    # for a normal double); those that read back as a are strictly within it.
    half_gap = np.multiply(unit, 2.0**-54, out=unit)
    sub = e < -1021
    if sub.any():  # subnormals: the gap is 2**-1074
        half_gap[sub] *= _pow2(-1021 - e[sub].astype(np.int64))
    tol = TOLERANCE * (1.0 + half_gap)
    # The range is symmetric, so it holds a multiple of 10 (or 100) iff it
    # holds the one nearest V; and then it holds one multiple of 100 at most.
    hundreds = whole // 100 * 100
    v = (whole - hundreds) + frac  # V mod 100
    tens = np.rint(v * 0.1) * 10.0  # the multiple of 10 nearest, mod 100
    ten = np.abs(v - tens)
    hundred = np.minimum(v, 100.0 - v)
    round10, round100 = ten < half_gap, hundred < half_gap
    undecided = np.minimum(np.abs(ten - half_gap), np.abs(hundred - half_gap)) <= tol
    # A power of two's gap below is half its gap above; unless V is a multiple
    # of 100, the nearest multiple may be out of range where another is in.
    undecided |= (m == 0.5) & (hundred > tol)
    undecided |= half_gap >= 50.0  # a subnormal's range may hold two multiples of 100
    # No multiple of 10 in range: 17 digits, V rounded; else 16, V rounded to 10.
    near = np.rint(v)
    near += (tens - near) * round10
    digits = hundreds + near.astype(np.int64)
    near -= v  # a tie: V halfway between two roundings
    undecided |= np.abs(np.abs(near) - (0.5 + 4.5 * round10)) <= tol
    count = 17 - round10
    up = np.flatnonzero(round100)
    if up.size:  # the multiple of 100 in range: its trailing zeros give the rest of the count
        q = hundreds[up] // 100 + (v[up] > 50.0)
        digits[up] = q * 100
        count[up] = 15
        for n in (8, 4, 2, 1):
            quot = q // 10**n
            exact = quot * 10**n == q
            np.copyto(q, quot, where=exact)
            count[up] -= n * exact
    return digits, count, undecided


def _e16_layout(digits, row, negative, words, point: bool) -> None:
    """Writes to `words` (a row per word) the `e16` fields of d1.d2...d17 *
    10**(row + _E_MIN), without the point (d1...d17 from byte 1) unless `point`."""
    quad, suffix = _tables()[3:5]
    top = digits // 10**8
    first, low = top // 10**8, digits - top * 10**8
    # digits 2-9, then 10-17, each as one 8-byte word of two groups of four
    high, low = (quad.take(g) | quad.take(v - g * 10**4) << 32 for v in (top - first * 10**8, low) for g in [v // 10**4])
    at = 16 + 8 * point  # the bit digit 2 starts at
    words[0] = negative * np.uint64(ord("-")) | first.view(np.uint64) << 8 | high << at | np.uint64(0x3000 | 0x2E0000 * point)
    words[1] = high >> (64 - at) | low << at
    words[2] = low >> (64 - at) | suffix.take(row) << 8  # 'e' from byte 2 to 3


def _repr_layout(words, count, row, out) -> None:
    """Writes to `out` (a row of three words per value) the `shortest` fields
    of d1.d2...dc * 10**(row + _E_MIN), in repr's scientific or fixed
    notation, from the fields `words` of their digits, without the point."""
    keep, moved, text, shift, notation = _tables()[5:]
    case = notation.take(row) + count
    bits = shift.take(case)
    for i in range(3):  # one word at a time: temporaries of a word per value
        up = words[i] << bits
        up |= words[i - 1] >> (64 - bits) if i else 0  # and those from the word below
        up &= moved[i].take(case)
        up |= words[i] & keep[i].take(case)
        np.bitwise_or(up, text[i].take(case), out=out[:, i])


def pack(texts) -> np.ndarray:
    """WIDTH-byte fields for ASCII strings; a longer one raises ValueError."""
    fields = np.array([s.encode("ascii") for s in texts], dtype="S")
    if fields.dtype.itemsize > WIDTH:
        raise ValueError(f"text of {fields.dtype.itemsize} characters does not fit a {WIDTH}-byte field")
    return fields.astype(f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def _spell(x, shortest: bool, python) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    slow, zero = ~np.isfinite(a), a == 0.0  # slow: spelled by Python below
    a[slow | zero] = 0.30000000000000004  # stand-ins: 17 digits
    k, whole, frac, *binary = _decimal(a, shortest)
    if shortest:
        digits, count, undecided = _shortest(whole, frac, *binary)
    else:
        digits = whole + (frac > 0.5)  # rounded to nearest; ties are left undecided
        undecided = np.abs(frac - 0.5) <= TOLERANCE
    del a, whole, frac, binary
    digits[zero] = k[zero] = 0  # 0.0 is 0 * 10**0
    carry = digits == _TEN17
    digits[carry] = _TEN16
    row = k + carry - _E_MIN  # the exponent's row in the tables
    out = np.empty((x.size, 3), dtype="<u8")
    words = np.empty((3, x.size), dtype=np.uint64) if shortest else out.T
    _e16_layout(digits, row, np.signbit(x), words, not shortest)
    if shortest:
        count[carry | zero] = 1
        _repr_layout(words, count, row, out)
    out = out.view(np.uint8)
    # The rest is spelled by Python, once per distinct bit pattern, from byte 1 unless signed.
    rest = np.flatnonzero(slow | undecided)
    if rest.size:
        distinct, inverse = np.unique(x[rest].view(np.int64), return_inverse=True)
        texts = map(python, distinct.view(np.float64).tolist())
        out[rest] = pack(text if text[0] == "-" else "\0" + text for text in texts)[inverse]
    return out


def e16(x) -> np.ndarray:
    """WIDTH-byte fields spelling each value of x as '%.16e' % v."""
    return _spell(x, False, "%.16e".__mod__)


def shortest(x) -> np.ndarray:
    """WIDTH-byte fields spelling each value of x as json.dumps(v), which for
    a finite v is repr(v): the shortest digits that read back as v."""
    return _spell(x, True, json.dumps)


def rows_text(columns, spell, before: str, between: str, after: str):
    """ASCII bytes of the rows of columns of one grid shape, row-major, in
    pieces of at most PIECE_ROWS rows; a row is `before`, its cells joined by
    `between`, then `after`.  Float cells are spelled by `spell` (e16 or
    shortest), integer cells by str; the zero bytes that pad them are dropped.

    A column that varies along one grid axis at most (its other axes have
    size 1 or stride 0, as np.broadcast_to gives) is spelled once per value of
    that line, all float lines in one call, at the width of its longest text.
    Blocks of rows never straddle a fastest-axis line; a template built before
    the first holds the separators, the constants and whole fastest-axis lines
    that fit a block, and any other line costs one gather per block.  The
    other columns are spelled per block, those of one dtype in one call."""

    def cells(values: np.ndarray) -> np.ndarray:
        return pack(map(str, values.tolist())) if values.dtype.kind in "iu" else spell(values)

    def tight(fields: np.ndarray) -> np.ndarray:  # texts at the width of the longest, each one item
        lines = np.column_stack([fields, np.full(len(fields), ord("\n"), dtype=np.uint8)]).tobytes()
        texts = np.array(lines.translate(None, b"\0").split(b"\n")[:-1], dtype="S")
        return texts.view(f"V{texts.itemsize}")

    grid = columns[0].shape
    n, size = math.prod(grid), grid[-1]

    def line_of(column):  # (the values along the one axis it varies in, rows per value), or None
        axes = [a for a, (k, step) in enumerate(zip(grid, column.strides)) if k > 1 and step]
        if len(axes) > 1 or axes and grid[axes[0]] == n:
            return None  # varies along two axes, or along every row: spelled per block
        index = tuple(slice(None) if a in axes else 0 for a in range(len(grid)))
        return column[index].reshape(-1), math.prod(grid[axes[0] + 1:]) if axes else n

    repeats = [line_of(c) for c in columns]
    floats = [r[0] for r in repeats if r is not None and r[0].dtype.kind == "f"]
    spelled = iter(np.split(spell(np.concatenate(floats)), np.cumsum([f.size for f in floats])) if floats else ())
    lines = [r and (tight(next(spelled) if r[0].dtype.kind == "f" else cells(r[0])), r[1]) for r in repeats]
    varying = {i: columns[i].reshape(-1) for i, r in enumerate(repeats) if r is None}
    groups = [[i for i in varying if columns[i].dtype == dtype] for dtype in dict.fromkeys(columns[i].dtype for i in varying)]

    # A float column's fields leave out byte 0 unless a value has its sign bit
    # set, and an `e16` field's last unless an exponent may have three digits.
    def used(values):
        a = np.abs(values)
        third = spell is not e16 or np.fmax.reduce(a) >= 9.5e99 or np.fmin.reduce(a, where=a > 0, initial=1.0) < 1e-99
        return int(values.view(np.int64).min() >= 0), WIDTH - int(not third)

    spans = {i: used(values) if values.dtype.kind == "f" else (0, WIDTH) for i, values in varying.items()}
    per = BLOCK_ROWS // size  # whole fastest-axis lines a block holds; 0: a slice of one
    capacity = per * size or BLOCK_ROWS
    span = max(size, capacity)  # no block straddles a multiple of span
    bounds = [(lo, min(lo + capacity, line + span, n)) for line in range(0, n, span) for lo in range(line, line + span, capacity)]
    # a cell's field is a slice of the block's rows, one item a row
    texts = [before] + [between] * (len(columns) - 1) + [after]
    widths = [line[0].itemsize if line else spans[i][1] - spans[i][0] for i, line in enumerate(lines)] + [0]
    row = b"".join(text.encode("ascii") + b"\0" * width for text, width in zip(texts, widths))
    block = np.tile(np.frombuffer(row, dtype=np.uint8), (capacity, 1))
    ends = np.cumsum([len(text) + width for text, width in zip(texts, widths)])
    fields = [block[:, end - width:end].view(f"V{width}")[:, 0] for end, width in zip(ends, widths[:-1])]

    def place(field, text, stride, lo, hi):  # rows lo..hi of a line: one gather, broadcast over runs of equal rows
        run = min(stride, size, hi - lo)  # each run's value is text[row // stride % len(text)], as "wrap" takes it
        field[:hi - lo].reshape(-1, run)[:] = text.take(np.arange(lo, hi, run) // stride, mode="wrap")[:, None]

    for field, line in zip(fields, lines):  # the template, where a constant and whole fastest-axis lines stay
        if line is not None:
            place(field, *line, 0, capacity)
    moving = [(field, *line) for field, line in zip(fields, lines) if line and len(line[0]) > 1 and not (per and line[1] == 1 < size)]
    for lo, hi in bounds:
        for field, text, stride in moving:
            place(field, text, stride, lo, hi)
        for group in groups:
            parts = cells(np.concatenate([varying[i][lo:hi] for i in group])).reshape(len(group), hi - lo, WIDTH)
            for i, part in zip(group, parts):
                fields[i][:hi - lo] = part[:, slice(*spans[i])].view(fields[i].dtype)[:, 0]
        for first in range(0, hi - lo, PIECE_ROWS):
            yield _unpadded(block[first:min(first + PIECE_ROWS, hi - lo)].tobytes(), spell is e16)


def _unpadded(piece: bytes, few: bool) -> bytes:
    # replace costs per zero byte (1-2 % of an `e16` block), translate per byte
    return piece.replace(b"\0", b"") if few else piece.translate(None, b"\0")
