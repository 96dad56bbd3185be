"""Exact float64-to-text conversion over whole numpy arrays.

`e16(x)` spells every value as `'%.16e' % v` and `shortest(x)` as
`json.dumps(v)` (which is `repr(v)` for a finite v), byte for byte.  Each
returns one fixed-width ASCII field per value, in a layout of its own (see
E16_WIDTH and WIDTH), padded with zero bytes that may sit anywhere in the
field: the text is the field with its zero bytes removed.

The digits come from V = |x| * 10**(16 - k), with 10**k <= |x| < 10**(k+1),
computed in double-double arithmetic from a table 10**s = (hi + lo) * 2**t
that is built once, with integers, on first use.  The error of V is below
1e-13, so the 17 rounded digits (`%.16e`) and the shortest digits that read
back as x (`repr`) follow from V alone, except within TOLERANCE of a
rounding or round-trip boundary.  Such values, and zeros, non-finite values
and powers of two (whose round-trip interval is lopsided), are spelled by
Python itself.  The method is the fixed-precision half of Ryu-style
conversion (Adams, PLDI 2018), done as array passes.

`rows_text` joins such fields, column arrays laid out on a grid, into the
text of delimited rows (CSV lines, JSON arrays) and drops the padding.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

# A `shortest` field is four little-endian 8-byte words:
#   word 0     the sign and a 0.000 prefix ('0.' and up to three '0')
#   words 1-3  the 17 digits from the first byte of word 1 on, those after the
#              point one byte up to make room for it; from byte 2 of word 3,
#              '.0' or 'e', the exponent's sign and two or three digits
WIDTH = 32
# An `e16` field is three words, fixed: the sign, d1 and '.' in bytes 0-2, the
# other 16 digits in bytes 3-18, and 'e', the exponent's sign and two or three
# digits from byte 19 on.
E16_WIDTH = 24

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
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_DOTS = np.uint64(int.from_bytes(b"." * 8, "little"))


@functools.cache
def _tables():
    """The power-of-ten table and the byte tables of the field layouts."""
    hi, lo, t = [], [], []
    for s in range(_S_MIN, _S_MAX + 1):
        # x = floor(10**s * 2**(120 - t)) with 10**s / 2**t in [1, 2)
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        t.append(num.bit_length() - den.bit_length() - (s < 0))
        x = (num << max(0, 120 - t[-1])) // (den << max(0, t[-1] - 120))
        h = float(x)
        hi.append(h)
        lo.append(float(x - int(h)))
    hi = np.ldexp(np.array(hi), -120)
    lo = np.ldexp(np.array(lo), -120)
    t = np.array(t, dtype=np.int64)

    def words(texts):  # byte strings of up to 8 bytes as little-endian words
        return np.array([b.ljust(8, b"\0") for b in texts], dtype="S8").view("<u8").astype(np.uint64)

    # word 0 by (sign, zeros of a 0.000 prefix plus one or none)
    prefix = words(sign + (b"0." + b"0" * (z - 1) if z else b"") for sign in (b"", b"-") for z in range(5))
    # the digits of each group 0000..9999, in the low half of a word
    quad = words(b"%04d" % v for v in range(10_000))
    # the end of word 3: nothing, '.0', or an exponent
    suffix = words([b"", b"\0\0.0"] + [b"\0\0e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)])
    # below[:, j] keeps the bytes of words 1-3 before their byte j, j in 0..25
    below = ~(np.uint64(2**64 - 1) << (8 * np.clip(np.arange(26) - [[0], [8], [16]], 0, 8)).astype(np.uint64))
    return hi, lo, t, prefix, quad, suffix, below


def _product_error(a, b, p):
    """a*b - p exactly, for p = a*b rounded (Dekker's two-product)."""
    c = 134217729.0 * a  # splits into halves of 26 bits
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = 134217729.0 * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _pow2(e):
    """2.0**e for integers e in -1022..1023, from its bits (np.ldexp is slow)."""
    return ((e + 1023) << 52).view(np.float64)


def _scaled(a, k):
    """V = a * 10**(16 - k) as an int64 part and a fraction in [0, 1)."""
    hi, lo, t = _tables()[:3]
    i = 16 - k - _S_MIN
    m, e = np.frexp(a)
    h = hi[i]
    p = m * h
    tail = _product_error(m, h, p) + m * lo[i]
    scale = _pow2(e + t[i])  # V = p * scale + tail * scale, each product exact
    p *= scale
    tail *= scale
    whole = np.floor(p)
    frac = (p - whole) + tail
    carry = np.floor(frac)
    frac -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), frac


def _decimal(a):
    """k, with 10**k <= a < 10**(k+1), and V = a * 10**(16 - k) in [1e16, 1e17)
    as (int64 part, fraction), for finite a > 0."""
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, k)
    for _ in range(2):  # log10 can be off by one next to a power of ten
        off = (whole >= _TEN17).astype(np.int64) - (whole < _TEN16)
        wrong = np.flatnonzero(off)
        if wrong.size == 0:
            break
        k[wrong] += off[wrong]
        whole[wrong], frac[wrong] = _scaled(a[wrong], k[wrong])
    return k, whole, frac


def _shortest(a, k, whole, frac):
    """The shortest digits that read back as a: (digits as a 17-digit
    integer with trailing zeros, digit count, values left undecided)."""
    m, e = np.frexp(a)
    undecided = m == 0.5  # a power of two: the gap below is half the gap above
    # Half the gap to the neighbouring doubles, in units of V; the doubles
    # read back as a are those strictly within it (ends are ties).
    hi, _, t = _tables()[:3]
    i = 16 - k - _S_MIN
    half_gap = hi[i] * _pow2(np.maximum(e - 53, -1074) - 1 + t[i])
    tol = TOLERANCE * (1.0 + half_gap)
    # The integers first..last lie strictly within half_gap of V.
    edge = frac - half_gap
    undecided |= np.abs(edge - np.rint(edge)) <= tol
    first = whole + np.floor(edge).astype(np.int64) + 1
    edge = frac + half_gap
    undecided |= np.abs(edge - np.rint(edge)) <= tol
    last = whole + np.ceil(edge).astype(np.int64) - 1
    # first..last holds a multiple of 10**j iff last % 10**j <= last - first,
    # and then of every smaller power: walk j up, and whole // 10**j with it, by
    # scalar divisors.  (x - x // p * p: numpy's x % p is several times slower)
    span = last - first
    j, quot = np.zeros(a.size, dtype=np.int64), whole.copy()
    live = np.flatnonzero(last - last // 10 * 10 <= span)
    for power in _POW10[1:]:  # live: the rows whose range holds a multiple of power
        j[live] += 1
        quot[live] = whole[live] // power
        tail = last[live]
        live = live[tail - tail // (10 * power) * (10 * power) <= span[live]] if power < _TEN16 else live[:0]
        if live.size == 0:
            break
    # Of the multiples of 10**j in range, repr takes the nearest.
    p = _POW10[j]
    rem = (whole - quot * p) + frac
    undecided |= np.abs(rem - 0.5 * p) <= tol
    quot += rem > 0.5 * p
    return quot * p, 17 - j, undecided


def _layout(digits, count, decpt, negative) -> np.ndarray:
    """`shortest` fields for the values 0.d1d2...d17 * 10**decpt, digits given
    as a 17-digit integer of which the first `count` are shown, in repr's
    scientific or fixed layout."""
    prefix, quad, suffix, below = _tables()[3:]
    scientific = (decpt <= -4) | (decpt > 16)  # repr's rule
    lead = np.where(scientific, 1, decpt)  # digits before the point
    point = np.where((lead > 0) & (lead < count), lead, 24)  # 24: none
    shown = np.maximum(count, lead)
    zeros = np.maximum(1 - lead, 0)  # of '0.000'
    end = np.where(scientific, decpt + (1 - _E_MIN), lead >= count)
    words = np.empty((3, digits.size), dtype=np.uint64)
    high = digits // 10**9  # digits 1-8, then 9-17
    low = digits - high * 10**9
    group = high // 10**4
    words[0] = quad.take(group) | quad.take(high - group * 10**4) << 32
    group = low // 10**5
    low -= group * 10**5
    high = low // 10
    words[1] = quad.take(group) | quad.take(high) << 32
    words[2] = low - high * 10 + ord("0")
    words &= below.take(shown, axis=1)  # the digits not shown are no text
    # The point goes to byte `point` of words 1-3; the bytes from there move up one.
    moved = words << 8
    moved[1:] |= words[:-1] >> 56
    kept = below.take(point, axis=1)  # in place: a new array costs more here
    words ^= moved
    words &= kept
    words ^= moved  # the bytes before the point, then those moved
    kept ^= below.take(point + 1, axis=1)  # the point's byte
    np.bitwise_xor(words, _DOTS, out=moved)
    moved &= kept
    words ^= moved
    words[2] |= suffix.take(end)
    out = np.empty((digits.size, 4), dtype="<u8")
    out[:, 0] = prefix.take(zeros + 5 * negative)
    for i, word in enumerate(words, 1):
        out[:, i] = word
    return out.view(np.uint8)


def _e16_layout(digits, decpt, negative) -> np.ndarray:
    """`e16` fields for the values 0.d1d2...d17 * 10**decpt, digits a 17-digit integer."""
    quad, suffix = _tables()[4:6]
    top = digits // 10**8
    first, low = top // 10**8, digits - top * 10**8
    # digits 2-9, then 10-17, each as one 8-byte word of two groups of four
    high, low = (quad.take(g) | quad.take(v - g * 10**4) << 32 for v in (top - first * 10**8, low) for g in [v // 10**4])
    out = np.empty((digits.size, 3), dtype="<u8")
    out[:, 0] = negative * np.uint64(ord("-")) | first.view(np.uint64) << 8 | high << 24 | np.uint64(0x2E3000)  # '0', '.'
    out[:, 1] = high >> 40 | low << 24
    out[:, 2] = low >> 40 | suffix.take(decpt + (1 - _E_MIN)) << 8  # 'e' from byte 2 to 3
    return out.view(np.uint8)


def pack(texts, width: int = WIDTH) -> np.ndarray:
    """Fields of `width` bytes for ASCII strings; a longer one raises ValueError."""
    fields = np.array([s.encode("ascii") for s in texts], dtype="S")
    if fields.dtype.itemsize > width:
        raise ValueError(f"text of {fields.dtype.itemsize} characters does not fit a {width}-byte field")
    return fields.astype(f"S{width}").view(np.uint8).reshape(-1, width)


def _spell(x, shortest: bool, python) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    slow = ~(np.isfinite(a) & (a > 0.0))
    a[slow] = 0.30000000000000004  # spelled by Python below; 17 digits: a short search
    k, whole, frac = _decimal(a)
    if shortest:
        digits, count, undecided = _shortest(a, k, whole, frac)
    else:
        digits = whole + (frac > 0.5)  # rounded to nearest; ties are left undecided
        undecided = np.abs(frac - 0.5) <= TOLERANCE
    del a, whole, frac
    carry = digits == _TEN17
    digits[carry] = _TEN16
    decpt = k + 1 + carry  # the value is 0.d1d2... * 10**decpt
    if shortest:
        count[carry] = 1
        out = _layout(digits, count, decpt, np.signbit(x))
    else:
        out = _e16_layout(digits, decpt, np.signbit(x))
    # The rest is spelled by Python, once per distinct bit pattern.
    rest = np.flatnonzero(slow | undecided)
    if rest.size:
        distinct, inverse = np.unique(x[rest].view(np.int64), return_inverse=True)
        out[rest] = pack(map(python, distinct.view(np.float64).tolist()), out.shape[1])[inverse]
    return out


def e16(x) -> np.ndarray:
    """E16_WIDTH-byte fields spelling each value of x as '%.16e' % v."""
    return _spell(x, False, "%.16e".__mod__)


def shortest(x) -> np.ndarray:
    """WIDTH-byte fields spelling each value of x as json.dumps(v), which for
    a finite v is repr(v): the shortest digits that read back as v."""
    return _spell(x, True, json.dumps)


def _repeat(column: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, int] | None:
    """(line, stride) if the column, laid out on the grid, varies along one
    axis of `shape` only, so that row i holds line[i // stride % line.size];
    None if it varies along more.  `shape` is the grid's shape after a
    leading axis of 1, along which a constant column varies.  Bit patterns
    are compared, so -0.0 stays apart from 0.0."""
    grid = (column.view(np.int64) if column.dtype.kind == "f" else column).reshape(shape)
    for axis, size in enumerate(shape):
        if size == column.size:
            continue  # the line would be the whole column: nothing repeats
        index = tuple(slice(None) if a == axis else slice(0, 1) for a in range(len(shape)))
        if np.all(grid == grid[index]):
            return column.reshape(shape)[index].ravel(), math.prod(shape[axis + 1:])
    return None


def rows_text(columns, grid: tuple[int, ...], spell, before: str, between: str, after: str):
    """Text of the rows of equal-length columns laid out on a grid of shape
    `grid` (row-major), in pieces of at most PIECE_ROWS rows; a row is
    `before`, its cells joined by `between`, then `after`.  Float cells are
    spelled by `spell` (e16 or shortest), integer cells by str.

    A column that varies along one grid axis at most is spelled once per value
    of its line, all float lines in one call, at the width of its longest
    text.  Blocks of rows never straddle a fastest-axis line; their template
    holds the separators, the constants and whole fastest-axis lines, and a
    slower axis's line costs one gather per block.  The other columns are
    spelled per block, those of one dtype in one call."""

    def cells(values: np.ndarray) -> np.ndarray:
        return pack(map(str, values.tolist())) if values.dtype.kind in "iu" else spell(values)

    def tight(fields: np.ndarray) -> np.ndarray:  # texts at the width of the longest
        text = fields != 0  # sorted to the front, in order
        return np.take_along_axis(fields, np.argsort(~text, axis=1, kind="stable"), axis=1)[:, :text.sum(1).max()]

    n, size = columns[0].size, grid[-1]
    repeats = [_repeat(c, (1,) + tuple(grid)) for c in columns]
    floats = [r[0] for r in repeats if r is not None and r[0].dtype.kind == "f"]
    spelled = iter(np.split(spell(np.concatenate(floats)), np.cumsum([f.size for f in floats])) if floats else ())
    lines = [r and (tight(next(spelled) if r[0].dtype.kind == "f" else cells(r[0])), r[1]) for r in repeats]
    varying = [i for i, r in enumerate(repeats) if r is None]
    groups = [[i for i in varying if columns[i].dtype == dtype] for dtype in dict.fromkeys(columns[i].dtype for i in varying)]
    per = BLOCK_ROWS // size  # whole fastest-axis lines a block holds; 0: a slice of one
    capacity = per * size or BLOCK_ROWS
    span = max(size, capacity)  # no block straddles a multiple of span
    bounds = [(lo, min(lo + capacity, line + span, n)) for line in range(0, n, span) for lo in range(line, line + span, capacity)]
    fixed = [line is not None and (len(line[0]) == 1 or per and line[1] == 1 < size) for line in lines]  # in the template
    block = None
    for lo, hi in bounds:
        m = hi - lo
        spelled = {i: part for group in groups for i, part in
                   zip(group, cells(np.concatenate([columns[i][lo:hi] for i in group])).reshape(len(group), m, -1))}
        if block is None:  # a cell's field is a slice of the block's rows
            texts = [before] + [between] * (len(columns) - 1) + [after]
            widths = [spelled[i].shape[1] if line is None else line[0].shape[1] for i, line in enumerate(lines)] + [0]
            row = b"".join(text.encode("ascii") + b"\0" * width for text, width in zip(texts, widths))
            block = np.tile(np.frombuffer(row, dtype=np.uint8), (capacity, 1))
            ends = np.cumsum([len(text) + width for text, width in zip(texts, widths)])
            fields = [block[:, end - width:end] for end, width in zip(ends, widths)]
        for field, line, once in zip(fields, lines, fixed):
            if line is None or once and lo:
                continue
            text, stride = line
            if once:  # into the template, at the first block
                field.reshape(-1, len(text), field.shape[1])[:] = text
            elif stride == 1 < size:  # a slice of the fastest axis's line
                field[:m] = text[lo % size:lo % size + m]
            elif per:  # one value per fastest-axis line
                field[:m].reshape(-1, size, field.shape[1])[:] = text[np.arange(lo, hi, size) // stride % len(text), None]
            else:
                field[:m] = text[lo // stride % len(text)]
        for i, part in spelled.items():
            fields[i][:m] = part
        for first in range(0, m, PIECE_ROWS):
            # the zero bytes that pad each field are not text
            yield block[first:min(first + PIECE_ROWS, m)].tobytes().translate(None, b"\0").decode("ascii")
