"""Exact float64-to-text conversion over whole numpy arrays.

`e16(x)` spells every value as `'%.16e' % v` and `shortest(x)` as
`json.dumps(v)` (which is `repr(v)` for a finite v), byte for byte.  Each
returns one WIDTH-byte ASCII field per value, both in the one layout given
at WIDTH, padded with zero bytes that may sit anywhere in the field: the
text is the field with its zero bytes removed.

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

# A field is four little-endian 8-byte words:
#   word 0     the sign and a 0.000 prefix ('0.' and up to three '0')
#   words 1-3  the 17 digits from the first byte of word 1 on, those after the
#              point one byte up to make room for it; from byte 2 of word 3,
#              '.0' or 'e', the exponent's sign and two or three digits
WIDTH = 32

# Rows per block the varying columns of a table are spelled and assembled in:
# one call per block, so the per-call cost of numpy is spread over 1,024 rows.
BLOCK_ROWS = 1024
# Rows per piece of text a block is returned in (about 300 bytes a row).
# Returning whole blocks left a process that also parses the output about
# 1 MiB larger.
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
    """The power-of-ten table and the byte tables of the field layout."""
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
    # first..last holds a multiple of 10**j iff last % 10**j <= last - first;
    # if it does for j, it does for every smaller j.  Find the largest j.
    span = last - first
    # (x - x // p * p: numpy's x % p is several times slower)
    j = np.zeros(a.size, dtype=np.int64)
    live = np.flatnonzero(last - last // 10 * 10 <= span)
    for power in _POW10[2:]:
        if live.size == 0:
            break
        j[live] += 1
        tail = last[live]
        live = live[tail - tail // power * power <= span[live]]
    j[live] += 1
    # Of the multiples of 10**j in range, repr takes the nearest.
    p = _POW10[j]
    quot = whole // p
    rem = (whole - quot * p) + frac
    undecided |= np.abs(rem - 0.5 * p) <= tol
    quot += rem > 0.5 * p
    return quot * p, 17 - j, undecided


def _layout(digits, count, decpt, negative, scientific) -> np.ndarray:
    """Fields for the values 0.d1d2...d17 * 10**decpt, digits given as a
    17-digit integer of which the first `count` are shown, in Python's
    scientific (%e) or fixed (repr) layout."""
    prefix, quad, suffix, below = _tables()[3:]
    if np.ndim(scientific):  # repr: fixed or scientific by value
        lead = np.where(scientific, 1, decpt)  # digits before the point
        point = np.where((lead > 0) & (lead < count), lead, 24)  # 24: none
        shown = np.maximum(count, lead)
        zeros = np.maximum(1 - lead, 0)  # of '0.000'
        end = np.where(scientific, decpt + (1 - _E_MIN), lead >= count)
    else:  # %e: all 17 digits, the point after the first
        point, shown, zeros, end = np.array([1]), np.array([17]), 0, decpt + (1 - _E_MIN)
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


def pack(texts) -> np.ndarray:
    """Fields for ASCII strings; one longer than WIDTH raises ValueError."""
    fields = np.array([s.encode("ascii") for s in texts], dtype="S")
    if fields.dtype.itemsize > WIDTH:
        raise ValueError(f"text of {fields.dtype.itemsize} characters does not fit a {WIDTH}-byte field")
    return fields.astype(f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def _spell(x, shortest: bool, python) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    slow = ~(np.isfinite(a) & (a > 0.0))
    a[slow] = 1.0  # spelled by Python below
    k, whole, frac = _decimal(a)
    if shortest:
        digits, count, undecided = _shortest(a, k, whole, frac)
    else:
        digits = whole + (frac > 0.5)  # rounded to nearest; ties are left undecided
        undecided = np.abs(frac - 0.5) <= TOLERANCE
        count = 17
    del a, whole, frac
    carry = digits == _TEN17
    digits[carry] = _TEN16
    if shortest:
        count[carry] = 1
    decpt = k + 1 + carry  # the value is 0.d1d2... * 10**decpt
    del k
    # repr's rule; %e is always scientific
    scientific = (decpt <= -4) | (decpt > 16) if shortest else np.True_
    out = _layout(digits, count, decpt, np.signbit(x), scientific)
    # The rest is spelled by Python, once per distinct bit pattern.
    rest = np.flatnonzero(slow | undecided)
    if rest.size:
        distinct, inverse = np.unique(x[rest].view(np.int64), return_inverse=True)
        out[rest] = pack(map(python, distinct.view(np.float64).tolist()))[inverse]
    return out


def e16(x) -> np.ndarray:
    """Fields spelling each value of x as '%.16e' % v."""
    return _spell(x, False, "%.16e".__mod__)


def shortest(x) -> np.ndarray:
    """Fields spelling each value of x as json.dumps(v), which for a finite v
    is repr(v): the shortest digits that read back as v."""
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

    A column that repeats over the grid (a constant, or one that varies along
    a single axis) is spelled once per value along its grid line, and those
    texts packed at the width of the longest.  The others are spelled in
    blocks of BLOCK_ROWS rows, all those of one dtype in one call."""

    def cells(values: np.ndarray) -> np.ndarray:
        return pack(map(str, values.tolist())) if values.dtype.kind in "iu" else spell(values)

    def tight(fields: np.ndarray) -> np.ndarray:  # texts at the width of the longest
        texts = np.array([f.tobytes().translate(None, b"\0") for f in fields], dtype="S")
        return texts.view(np.uint8).reshape(len(fields), -1)

    n = columns[0].size
    shape = (1,) + tuple(grid)
    repeats = [_repeat(c, shape) for c in columns]
    lines = [None if r is None else (tight(cells(r[0])), r[1]) for r in repeats]
    varying = [i for i, r in enumerate(repeats) if r is None]
    dtypes = dict.fromkeys(columns[i].dtype for i in varying)
    groups = [[i for i in varying if columns[i].dtype == dtype] for dtype in dtypes]
    # A block of rows whose separators, and constant cells, are written once;
    # the field of a cell is a slice of its columns.
    texts = [before] + [between] * (len(columns) - 1) + [after]
    widths = [WIDTH if line is None else line[0].shape[1] for line in lines] + [0]
    row = b"".join(text.encode("ascii") + b"\0" * width for text, width in zip(texts, widths))
    block = np.tile(np.frombuffer(row, dtype=np.uint8), (BLOCK_ROWS, 1))
    ends = np.cumsum([len(text) + width for text, width in zip(texts, widths)])
    fields = [block[:, end - width:end] for end, width in zip(ends, widths)]
    for field, line in zip(fields, lines):
        if line is not None and len(line[0]) == 1:
            field[:] = line[0]
    for lo in range(0, n, BLOCK_ROWS):
        rows = np.arange(lo, min(lo + BLOCK_ROWS, n))
        for field, line in zip(fields, lines):
            if line is not None and len(line[0]) > 1:
                field[:rows.size] = np.take(line[0], rows // line[1] % len(line[0]), axis=0)
        for group in groups:
            spelled = cells(np.concatenate([columns[i][lo:lo + rows.size] for i in group]))
            for i, part in zip(group, spelled.reshape(len(group), rows.size, WIDTH)):
                fields[i][:rows.size] = part
        for first in range(0, rows.size, PIECE_ROWS):
            # the zero bytes that pad each field are not text
            yield block[first:min(first + PIECE_ROWS, rows.size)].tobytes().translate(None, b"\0").decode("ascii")
