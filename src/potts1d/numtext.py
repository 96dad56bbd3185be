"""Exact float64-to-text conversion over whole numpy arrays.

`e16(x)` spells every value as `'%.16e' % v` and `shortest(x)` as
`json.dumps(v)` (which is `repr(v)` for a finite v), byte for byte.  Each
returns one WIDTH-byte ASCII field per value, padded with zero bytes that
may sit anywhere in the field: the text is the field with its zero bytes
removed.

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

WIDTH = 48

# Rows per block the varying columns of a table are spelled in: one call per
# block, so the per-call cost of numpy is spread over 1,024 rows.
BLOCK_ROWS = 1024
# Rows per piece of text a block is assembled and returned in (about 600
# bytes of buffer a row).  Assembling whole blocks left a process that also
# parses the output about 1 MiB larger.
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

# Field layout, in 8-byte words:
#   word 0   sign, '0' '.' and up to three '0' (0.000ddd), digit 1, slot 1
#   words 1-4  digits 2..17, each followed by its slot
#   word 5   '.0', then 'e', exponent sign and up to three exponent digits
# A slot holds the decimal point when it follows that digit.


def _words(texts) -> np.ndarray:
    """Byte strings of up to 8 bytes as native uint64 words."""
    return np.array([t.ljust(8, b"\0") for t in texts], dtype="S8").view(np.uint64)


@functools.cache
def _tables():
    """The power-of-ten table and the byte tables of the field layout."""
    hi, lo, t = [], [], []
    for s in range(_S_MIN, _S_MAX + 1):
        # x = floor(10**s * 2**(120 - t)) with 10**s / 2**t in [1, 2)
        if s >= 0:
            p = 10**s
            t.append(p.bit_length() - 1)
            shift = 120 - t[-1]
            x = p << shift if shift >= 0 else p >> -shift
        else:
            p = 10**-s
            t.append(-p.bit_length())
            x = (1 << (120 + p.bit_length())) // p
        h = float(x)
        hi.append(h)
        lo.append(float(x - int(h)))
    hi = np.ldexp(np.array(hi), -120)
    lo = np.ldexp(np.array(lo), -120)
    t = np.array(t, dtype=np.int64)

    # word 0 by (sign, zeros of a 0.000 prefix plus one or none, digit 1)
    head = _words(
        sign + (b"0." + b"0" * (z - 1) if z else b"").ljust(5, b"\0") + b"%d" % d
        for sign in (b"\0", b"-")
        for z in range(5)
        for d in range(10)
    ).reshape(2, 5, 10)
    # words 1-4: four digits, each followed by an empty slot, per group 0000..9999
    quad = np.zeros((10_000, 8), dtype=np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        quad[:, 2 * i] = np.arange(10_000, dtype=np.uint16) // place % 10 + ord("0")
    quad = quad.view(np.uint64).ravel()
    # keep[n] clears digits 2..17 beyond the n-th
    keep = np.zeros((18, 16, 2), dtype=np.uint8)
    for n in range(2, 18):
        keep[n, : n - 1, 0] = 0xFF
    keep = keep.reshape(18, 4, 8).view(np.uint64)[..., 0]
    # word 5: nothing, '.0', or an exponent
    tail = _words([b"", b".0"] + [b"\0\0e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)])
    return hi, lo, t, head, quad, keep, tail


def _product_error(a, b, p):
    """a*b - p exactly, for p = a*b rounded (Dekker's two-product)."""
    c = 134217729.0 * a  # splits into halves of 26 bits
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = 134217729.0 * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled(a, k):
    """V = a * 10**(16 - k) as an int64 part and a fraction in [0, 1)."""
    hi, lo, t = _tables()[:3]
    i = 16 - k - _S_MIN
    m, e = np.frexp(a)
    h = hi[i]
    p = m * h
    tail = _product_error(m, h, p) + m * lo[i]
    e = e + t[i]
    p = np.ldexp(p, e)  # scaling by 2**e is exact, so V = p + tail
    tail = np.ldexp(tail, e)
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
    half_gap = np.ldexp(hi[i], np.maximum(e - 53, -1074) - 1 + t[i])
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
    j = np.zeros(a.size, dtype=np.int64)
    live = np.arange(a.size)
    for power in _POW10[1:]:
        live = live[last[live] % power <= span[live]]
        if live.size == 0:
            break
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
    _, _, _, head, quad, keep, tail = _tables()
    fixed = ~scientific
    out = np.empty((digits.size, 6), dtype=np.uint64)
    first = digits // _TEN16
    zeros = np.where(fixed & (decpt <= 0), 1 - decpt, 0)
    out[:, 0] = head[negative.astype(np.intp), zeros, first]
    digits = digits - first * _TEN16
    high = digits // 10**8
    digits -= high * 10**8
    out[:, 1] = quad[high // 10**4]
    out[:, 2] = quad[high % 10**4]
    out[:, 3] = quad[digits // 10**4]
    out[:, 4] = quad[digits % 10**4]
    out[:, 5] = tail[np.where(scientific, decpt + 1 - _E_MIN, fixed & (decpt >= count))]
    shown = np.where(fixed & (decpt > count), decpt, count)
    cut = np.flatnonzero(shown < 17)
    out[cut, 1:5] &= keep[shown[cut]]
    out = out.view(np.uint8)
    point = np.where(scientific, count > 1, np.where((decpt > 0) & (decpt < count), decpt, 0))
    dotted = np.flatnonzero(point)
    out[dotted, 5 + 2 * point[dotted]] = ord(".")  # the slot after digit `point`
    return out


def pack(texts) -> np.ndarray:
    """Fields for ASCII strings of at most WIDTH characters."""
    return np.array([s.encode("ascii") for s in texts], dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


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
    a single axis) is spelled once per value along its grid line.  The others
    are spelled in blocks of BLOCK_ROWS rows, all those of one dtype in one
    call."""

    def cells(values: np.ndarray) -> np.ndarray:
        return pack(map(str, values.tolist())) if values.dtype.kind in "iu" else spell(values)

    n, width = columns[0].size, WIDTH
    shape = (1,) + tuple(grid)
    repeats = [_repeat(c, shape) for c in columns]
    lines = [None if r is None else (cells(r[0]), r[1]) for r in repeats]
    varying = [i for i, r in enumerate(repeats) if r is None]
    dtypes = dict.fromkeys(columns[i].dtype for i in varying)
    groups = [[i for i in varying if columns[i].dtype == dtype] for dtype in dtypes]
    separators = [
        np.broadcast_to(np.frombuffer(text.encode("ascii"), dtype=np.uint8), (BLOCK_ROWS, len(text)))
        for text in [before] + [between] * (len(columns) - 1) + [after]
    ]
    for lo in range(0, n, BLOCK_ROWS):
        rows = np.arange(lo, min(lo + BLOCK_ROWS, n))
        fields = [None if line is None else line[0][rows // line[1] % len(line[0])] for line in lines]
        for group in groups:
            spelled = cells(np.concatenate([columns[i][lo:lo + rows.size] for i in group]))
            for i, part in zip(group, spelled.reshape(len(group), rows.size, width)):
                fields[i] = part
        parts = [separators[0]]
        for field, separator in zip(fields, separators[1:]):
            parts += [field, separator]
        parts = [p for p in parts if p.shape[1]]  # CSV puts nothing before a row
        for first in range(0, rows.size, PIECE_ROWS):
            last = min(first + PIECE_ROWS, rows.size)
            piece = np.concatenate([p[first:last] for p in parts], axis=1)
            # the zero bytes that pad each field are not text
            yield piece.tobytes().translate(None, b"\0").decode("ascii")
