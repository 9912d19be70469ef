"""``float.__repr__`` of a float64 array block, computed a column at a time.

:func:`float_text` returns ``sep.join(map(float.__repr__, block.tolist()))``
for a 1-D block of finite float64, byte for byte, without a Python float
per value. :mod:`sagini.io` writes the JSON Lorenz shares with it.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal that reads back as the double, and
of those the closest, ties to even, which are the digits ``repr`` writes.
Two steps differ from Giulietti's Java code, which always writes at least
two digits: a subnormal's significand is not scaled by 10, and the
one-digit-shorter candidate is tried from ``s >= 10``, not ``s >= 100``,
so ``5e-324`` and ``1e-322`` keep their single digit. The 64x64-bit high
products are four 32x32-bit ones. Significands stay in uint64 arrays and
exponents in int64 ones, and no operation mixes the two: before numpy 2.0,
uint64 meeting int64 gives float64.

The text is gathered from a byte matrix holding each value's 17 digits,
constants and exponent digits, through a template of columns chosen per
row by its sign, count of significant digits and decimal point position.
The separator is appended as fixed columns, and the templates' padding is
dropped with one mask.

The tables are built when the module loads, in a few milliseconds;
:mod:`sagini.io` imports it on first use, so that commands writing no
float array pay for neither.
"""

from __future__ import annotations

import numpy as np

#: The range of Schubfach's decimal exponent k over finite doubles.
_K_MIN, _K_MAX = -324, 292
#: The range of the decimal point position D, with a double equal to
#: ``0.d1d2...dn * 10**D``, over finite nonzero doubles.
_D_MIN, _D_MAX = -323, 309
_LOW32 = 0xFFFF_FFFF
_LOW63 = (1 << 63) - 1
_ASCII_ZEROS = 0x3030_3030_3030_3030

# A row of the source byte matrix is four little-endian uint64 words:
# digits 2-9 of the 17-digit significand, digits 10-17, then the first
# digit, the constants "-.0e+-" and the three digits of the decimal
# exponent.
_LEAD, _MINUS, _DOT, _ZERO, _E, _PLUS, _NEG, _EXP = range(16, 24)
_SOURCE_BYTES = 32
#: Source columns of digits 1 to 17.
_DIGITS = (_LEAD, *range(16))
#: The longest repr, "-1.2345678901234567e-308".
_REPR_BYTES = 24
#: Template positions: 0-19 for fixed notation, ``D + 3`` for D from -3 to
#: 16, then 20 + exponent notation's class, 2 * (e > 0) + (|e| >= 100).
_POSITIONS = 24


def _schubfach_g(k: int) -> int:
    """Schubfach's ``g = floor(10**-k * 2**-r) + 1``, with ``r =
    floor(log2(10**-k)) - 125``, so that ``2**125 <= g - 1 < 2**126``."""
    r = _floor_log2_pow10(-k) - 125
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    if r >= 0:
        den <<= r
    else:
        num <<= -r
    return num // den + 1


def _floor_log2_pow10(e: int) -> int:
    """``floor(log2(10**e))``, exactly."""
    return (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())


def _position(decpt: int) -> int:
    if -3 <= decpt <= 16:
        return decpt + 3
    e = decpt - 1
    return 20 + 2 * (e > 0) + (abs(e) >= 100)


def _repr_columns(sign: int, n: int, position: int) -> list[int]:
    """Source columns that spell a repr with ``n`` significant digits (a zero
    for n = 0) at template ``position``, as ``float.__repr__`` does: fixed
    notation for D from -3 to 16, else ``d.ddde±XX`` with at least two
    exponent digits."""
    cols = [_MINUS] if sign else []
    if n == 0:
        return cols + [_ZERO, _DOT, _ZERO]
    digits = list(_DIGITS[:n])
    if position < 20:
        decpt = position - 3
        if decpt <= 0:
            return cols + [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        if decpt < n:
            return cols + digits[:decpt] + [_DOT] + digits[decpt:]
        return cols + digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    kind = position - 20
    cols += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
    cols += [_E, _PLUS if kind >= 2 else _NEG]
    return cols + [_EXP, _EXP + 1, _EXP + 2][1 - kind % 2 :]


def _templates() -> tuple[np.ndarray, np.ndarray]:
    """Source columns, and the mask of those used, of the repr of each
    template key ``(sign * 18 + n) * _POSITIONS + position``, with n the
    count of significant digits, 0 for a zero."""
    columns = np.zeros((2 * 18 * _POSITIONS, _REPR_BYTES), dtype=np.intp)
    used = np.zeros(columns.shape, dtype=bool)
    for key in range(len(columns)):
        sign, rest = divmod(key, 18 * _POSITIONS)
        cols = _repr_columns(sign, *divmod(rest, _POSITIONS))
        columns[key, : len(cols)] = cols
        used[key, : len(cols)] = True
    return columns, used


def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g for each k from ``_K_MIN`` to ``_K_MAX``, as its high
    63 bits and its low 63 bits."""
    g = [_schubfach_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    return (
        np.array([x >> 63 for x in g], dtype=np.uint64),
        np.array([x & _LOW63 for x in g], dtype=np.uint64),
    )


_G1, _G0 = _schubfach_table()
#: The low and high 32 bits of g's high and low 63 bits.
_G_HALVES = (_G1 & _LOW32, _G1 >> 32, _G0 & _LOW32, _G0 >> 32)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
#: A word is below ``2**(8 * i)`` when all but its low i bytes are zero.
_BYTE_BOUNDS = np.array([1 << (8 * i) for i in range(8)], dtype=np.uint64)
#: Per ``D - _D_MIN``: the template position, and source words 2 and 3 but
#: for the first digit: "0-.0e+-" and the exponent's three digits.
_POSITION = np.array([_position(d) for d in range(_D_MIN, _D_MAX + 1)], dtype=np.intp)
_WORD2, _WORD3 = np.frombuffer(
    b"".join(b"0-.0e+-%03d" % abs(d - 1) + bytes(6) for d in range(_D_MIN, _D_MAX + 1)),
    dtype="<u8",
).reshape(-1, 2).T.astype(np.uint64, order="C")
_COLUMNS, _USED = _templates()
for _table in (_G1, *_G_HALVES, _POW10, _BYTE_BOUNDS, _POSITION, _WORD2, _WORD3, _COLUMNS, _USED):
    _table.flags.writeable = False


def float_text(block: np.ndarray, sep: str) -> str:
    """``sep.join(map(float.__repr__, block.tolist()))`` for a 1-D block of
    finite float64, byte for byte."""
    bits = np.ascontiguousarray(block).view(np.uint64)
    f, k = _shortest_decimal(bits)
    return _decimal_text(bits, f, k, sep)


def _shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's ``(f, k)`` of each finite double in ``bits``: the digits
    ``f`` (uint64, up to 17 of them, trailing zeros kept) and the exponent
    ``k`` (int64) of ``f * 10**k``. A zero gives digits that
    :func:`_decimal_text` does not use."""
    # The double is c * 2**q, with c the significand and q the exponent.
    fraction = bits & ((1 << 52) - 1)
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    c = np.maximum(fraction | ((biased > 0).astype(np.uint64) << 52), 1)
    q = np.maximum(biased, 1) - 1075
    # A power of two above the smallest normal is closer to its lower
    # neighbour than to its upper one.
    closer_below = (fraction == 0) & (biased > 1)
    below = closer_below.astype(np.int64)
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for those powers
    # of two, in fixed point; shift = q + floor(log2(10**-k)) + 2.
    k = (q * 661_971_961_083 - 274_743_187_321 * below) >> 41
    shift = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    # The rounding interval's lower bound, the value and its upper bound,
    # in quarter units of the last place, each scaled by 10**-k below.
    odd = c & 1
    cb = c << 2
    cp = np.stack([cb - 2 + closer_below, cb, cb + 2]) << shift
    index = k - _K_MIN
    g1_lo, g1_hi, g0_lo, g0_hi = (half[index] for half in _G_HALVES)
    cp_lo, cp_hi = cp & _LOW32, cp >> 32
    x1 = _high_product(g0_lo, g0_hi, cp_lo, cp_hi)
    y1 = _high_product(g1_lo, g1_hi, cp_lo, cp_hi)
    z = ((_G1[index] * cp) >> 1) + x1
    # g * cp / 2**127 rounded to odd: the floor, with its low bit set when
    # the dropped bits are not all zero.
    vbl, vb, vbr = (y1 + (z >> 63)) | (((z & _LOW63) + _LOW63) >> 63)
    # Of s = floor(v * 10**-k) and s + 1, the one inside the interval, or
    # else the nearer, ties to even; but a multiple of 10 inside it is one
    # digit shorter. An odd significand's interval excludes its bounds.
    s = vb >> 2
    inside_s = vbl + odd <= s << 2
    inside_t = ((s + 1) << 2) + odd <= vbr
    mid = (s << 2) + 2
    nearer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    f = np.where(np.where(inside_s != inside_t, inside_s, nearer_s), s, s + 1)
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    inside_sp10 = vbl + odd <= sp10 << 2
    inside_tp10 = (tp10 << 2) + odd <= vbr
    shorter = (s >= 10) & (inside_sp10 != inside_tp10)
    f = np.where(shorter, np.where(inside_sp10, sp10, tp10), f)
    return f, k


def _decimal_text(bits: np.ndarray, f: np.ndarray, k: np.ndarray, sep: str) -> str:
    """The reprs of the doubles ``bits``, with digits ``f * 10**k``, joined
    by ``sep``."""
    rows = bits.size
    # f's digits padded to 17, split 1 + 8 + 8.
    ndigits = np.searchsorted(_POW10, f, side="right")
    decpt = k + ndigits - _D_MIN
    f = f * _POW10[17 - ndigits]
    lead = f // 10**16
    f = f - lead * 10**16
    high = f // 10**8
    high, low = _digit_bytes(high), _digit_bytes(f - high * 10**8)
    # Significant digits: 17 less the trailing zeros, which are the high
    # zero bytes of the digit words.
    n = np.where(
        low != 0,
        9 + np.searchsorted(_BYTE_BOUNDS, low, side="right"),
        1 + np.searchsorted(_BYTE_BOUNDS, high, side="right"),
    )
    n[(bits << 1) == 0] = 0
    key = ((bits >> 63).astype(np.intp) * 18 + n) * _POSITIONS + _POSITION[decpt]

    source = np.empty((rows, 4), dtype=np.uint64)
    source[:, 0] = high + _ASCII_ZEROS
    source[:, 1] = low + _ASCII_ZEROS
    source[:, 2] = _WORD2[decpt] + lead
    source[:, 3] = _WORD3[decpt]
    gather = _COLUMNS[key]
    gather += np.arange(0, rows * _SOURCE_BYTES, _SOURCE_BYTES)[:, None]
    width = _REPR_BYTES + len(sep)
    text = np.empty((rows, width), dtype=np.uint8)
    text[:, :_REPR_BYTES] = source.astype("<u8", copy=False).view(np.uint8).reshape(-1)[gather]
    del gather  # the largest array here: 8 bytes a column of every row
    text[:, _REPR_BYTES:] = np.frombuffer(sep.encode(), dtype=np.uint8)
    keep = np.ones((rows, width), dtype=bool)
    keep[:, :_REPR_BYTES] = _USED[key]
    text = text[keep].tobytes()
    return text[: len(text) - len(sep)].decode("ascii")


def _high_product(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 ``a`` and ``b``,
    given as their low and high 32-bit halves."""
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lh & _LOW32) + (hl & _LOW32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``x < 10**8``, one to a byte, as uint64
    words whose little-endian bytes read from the first digit: halved to
    4 + 4 digits, to 2 + 2 and to 1 + 1 within the word."""
    hi = x // 10_000
    v = hi | ((x - hi * 10_000) << 32)
    q = ((v * 5243) >> 19) & 0x7F_0000_007F  # / 100 in each 32-bit half
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & 0x000F_000F_000F_000F  # / 10 in each 16-bit half
    return q | ((v - q * 10) << 8)
