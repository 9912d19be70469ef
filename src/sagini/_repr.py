"""Text of a block of rows of numbers, computed a column at a time.

:func:`rows_text` returns ``sep.join(template % row for row in rows)``,
byte for byte, for rows whose fields come from columns: finite float64,
written as ``float.__repr__`` writes them, uint64, or codes into a few
words. No Python object is made per value. :mod:`sagini.io` writes the
JSON Lorenz shares, the CSV ``i,p,q`` rows and the sweep rows with it.

The rows of a call, which :mod:`sagini.io` sizes to at most 8,192 floats,
are laid out as one byte matrix: the template's bytes at fixed places,
each field in a slot as wide as its column's widest text, and a mask of
the bytes used, which compacts it. An int's
digits are eight to a uint64 word, split by SWAR steps (4 + 4, 2 + 2,
1 + 1 digits within the word), leading zeros masked out.

A float's digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal that reads back as the double, and
of those the closest, ties to even, which are the digits ``repr`` writes.
Two steps differ from Giulietti's Java code, which always writes at least
two digits: a subnormal's significand is not scaled by 10, and the
one-digit-shorter candidate is tried from ``s >= 10``, not ``s >= 100``,
so ``5e-324`` and ``1e-322`` keep their single digit. The 64x64-bit high
products are four 32x32-bit ones, formed for the value alone: the rounding
interval's bounds differ from the scaled value ``cp`` by a power of two
``2**s``, so their 128-bit products with g's words are the value's plus or
minus those words shifted by s. That is exact integer arithmetic, each
carry or borrow read from the low word, so the bounds get the same words
as multiplying them out would give. Significands and digits stay in uint64
arrays and exponents in int64 ones, and no operation mixes the two: before
numpy 2.0, uint64 meeting int64 gives float64.

A repr is spelled in three little-endian uint64 words, its 24 bytes, and
a length, which picks its mask from a table of prefixes. The digits,
padded to 17, are a byte each in the words. With the decimal point
position D, ``0.d1d2... * 10**D``, fixed notation (D from -3 to 16) keeps
the digits ahead of the point in place and shifts the rest up past what
goes between: "0." and -D zeros, or ".". Exponent notation is laid out as
D = 1, "d.ddd", then cut after its significant digits, and its suffix
"e±XX" shifted in after them. A negative repr is shifted up one byte more,
behind its "-". No shift is by 64 bits or more, which C leaves undefined.
The tables, per D, are built when the module loads, in a few
milliseconds; :mod:`sagini.io` imports it on first use, so that commands
writing no float pay for neither.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

#: The range of Schubfach's decimal exponent k over finite doubles.
_K_MIN, _K_MAX = -324, 292
#: The range of the decimal point position D, with a double equal to
#: ``0.d1d2...dn * 10**D``, over finite nonzero doubles.
_D_MIN, _D_MAX = -323, 309
_LOW32 = 0xFFFF_FFFF
_LOW63 = (1 << 63) - 1
_ASCII_ZEROS = 0x3030_3030_3030_3030
#: The longest repr, "-1.2345678901234567e-308".
_REPR_BYTES = 24


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


def _words(text: bytes) -> list[int]:
    """``text`` padded to :data:`_REPR_BYTES`, as three little-endian words."""
    return [int.from_bytes(text.ljust(_REPR_BYTES, b"\0")[i : i + 8], "little") for i in (0, 8, 16)]


def _layouts() -> tuple[np.ndarray, ...]:
    """Per ``D - _D_MIN``: the words of fixed notation's layout, which keeps
    the digits ahead of the point in place, their mask, moves the rest by a
    shift in bits, and puts bytes between, "0." and zeros or "."; and
    exponent notation's suffix "e±XX" as a word, and its length. Exponent
    notation lays out its mantissa as D = 1 does, "d.ddd"."""
    rows, suffix_bytes = [], []
    for decpt in range(_D_MIN, _D_MAX + 1):
        suffix = b"e%+03d" % (decpt - 1)
        point = decpt if -3 <= decpt <= 16 else 1
        kept = max(point, 0)
        between = b"0." + b"0" * -point if point <= 0 else bytes(point) + b"."
        shift = 8 * (len(between) - kept)
        rows.append([*_words(b"\xff" * kept)[:2], shift, *_words(between), _words(suffix)[0]])
        suffix_bytes.append(len(suffix))
    return (*np.array(rows, dtype=np.uint64).T.copy(), np.array(suffix_bytes))


def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g for each k from ``_K_MIN`` to ``_K_MAX``, as its high
    63 bits and its low 63 bits."""
    g = [_schubfach_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    return (
        np.array([x >> 63 for x in g], dtype=np.uint64),
        np.array([x & _LOW63 for x in g], dtype=np.uint64),
    )


_G1, _G0 = _schubfach_table()
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_MASK0, _MASK1, _SHIFT, _BETWEEN0, _BETWEEN1, _BETWEEN2, _SUFFIX, _SUFFIX_BYTES = _layouts()
#: Row L: the mask of a field's first L bytes, as bools and as three words.
_KEEP = np.arange(_REPR_BYTES) < np.arange(_REPR_BYTES + 1)[:, None]
_KEEP_WORDS = np.array(
    [_words(b"\xff" * i) for i in range(_REPR_BYTES + 1)], dtype=np.uint64
).T.copy()
for _table in (_G1, _G0, _POW10, _MASK0, _MASK1, _SHIFT, _BETWEEN0, _BETWEEN1, _BETWEEN2,
               _SUFFIX, _SUFFIX_BYTES, _KEEP, _KEEP_WORDS):
    _table.flags.writeable = False


def rows_text(template: str, columns: Sequence, sep: str = "") -> str:
    """``sep.join(template % row for row in rows)``, byte for byte, for the
    rows of a block whose fields are the items of ``columns``, one to each
    ``%s`` of ``template`` in turn. A column is

    - a 1-D float64 array of finite values, written as ``float.__repr__``
      writes them;
    - a 1-D uint64 array;
    - or a pair ``(codes, words)``, a tuple of an integer array and a
      sequence of str, its fields ``words[code]``.

    ``template`` holds no other ``%``. A nan or an inf in a float column,
    which ``repr`` and :mod:`json` spell otherwise, raises
    :class:`ValueError`, as do a code outside ``range(len(words))``, which
    numpy would read from the end or fail on untyped, no columns, a count
    of columns other than the count of ``%s``, and columns that are not all
    1-D and as long as the first. Any other column, a tuple that is not
    such a pair, or a pair whose codes are not an integer array or whose
    words are not str, raises :class:`TypeError`. No rows give ``""``.
    """
    literals = template.split("%s")
    if len(columns) != len(literals) - 1 or not columns:
        raise ValueError(
            f"the template has {len(literals) - 1} fields, got {len(columns)} columns"
        )
    layout = bytearray()
    fields = []
    for literal, column in zip(literals, columns):
        layout += literal.encode()
        if isinstance(column, tuple):
            if len(column) != 2 or not isinstance(column[0], np.ndarray):
                kinds = ", ".join(type(item).__name__ for item in column)
                raise TypeError(f"a pair must be (codes array, words), got ({kinds})")
            # str.encode raises TypeError on a word that is not a str.
            column, words = column[0], [str.encode(word) for word in column[1]]
            if column.dtype.kind not in "iu":
                raise TypeError(f"a pair's codes must be integers, got dtype {column.dtype}")
            bad = np.flatnonzero((column < 0) | (column >= len(words)))
            if bad.size:
                raise ValueError(f"code {column.flat[bad[0]]} is not in range({len(words)})")
            width, write = max(map(len, words), default=0), partial(_write_words, words)
        elif not isinstance(column, (np.ndarray, np.generic)):
            raise TypeError(
                f"a column must be an array or a (codes, words) pair, got {type(column).__name__}"
            )
        elif column.dtype == np.uint64:
            top = int(column.max(initial=0))
            width, write = 8 * (1 + (top >= 10**8) + (top >= 10**16)), _write_digits
        elif column.dtype != np.float64:
            raise TypeError(
                "a column must be float64, uint64 or a (codes, words) pair, "
                f"got dtype {column.dtype}"
            )
        elif np.isfinite(column).all():
            width, write = _REPR_BYTES, None
        else:
            raise ValueError("a float column holds a nan or an inf")
        fields.append((len(layout), width, write, column))
        layout += bytes(width)
    # A ragged column's fields would land in other rows' text.
    shape = fields[0][3].shape
    if len(shape) != 1 or any(column.shape != shape for *_, column in fields):
        raise ValueError("the columns must all be 1-D and as long as the first")
    (rows,) = shape
    if not rows:
        return ""
    layout += literals[-1].encode()
    end = len(layout)
    layout += sep.encode()
    # np.tile fills it several times faster than a broadcast assignment.
    # The mask keeps the template's bytes and each field's unpadded text.
    matrix = np.tile(np.frombuffer(layout, dtype=np.uint8), (rows, 1))
    keep = np.ones(matrix.shape, dtype=bool)
    # The float columns are formatted as one array, which costs a fifth of
    # the numpy calls for the five of a sweep row.
    floats = [column for _, _, write, column in fields if write is None]
    if floats:
        text, length = _float_words(np.concatenate(floats))
        reprs = zip(np.split(text, len(floats)), np.split(length, len(floats)))
    for start, width, write, column in fields:
        cells = np.s_[:, start : start + width]
        if write is None:
            text, length = next(reprs)
            matrix[cells] = text
            keep[cells] = _KEEP.take(length, axis=0)
        else:
            write(column, matrix[cells], keep[cells])
    keep[-1, end:] = False  # no separator after the last row
    return str(memoryview(matrix[keep]), "utf-8")


def _write_words(words: list[bytes], codes: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Write ``words[code]`` for each row's code into ``text``, and the mask
    of its bytes into ``keep``."""
    width = text.shape[1]
    table = np.array([list(word.ljust(width, b"\0")) for word in words], dtype=np.uint8)
    text[:] = table[codes]
    keep[:] = (np.arange(width) < np.array([len(word) for word in words])[:, None])[codes]


def _write_digits(x: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Write the digits of each uint64 ``x`` into ``text``, eight to a word
    and padded with leading zeros, and the mask of all but those zeros into
    ``keep``."""
    width = text.shape[1]
    digits = np.empty((len(x), width // 8), dtype=np.uint64)
    rest = x
    for word in reversed(range(width // 8)):
        high = rest // 10**8
        digits[:, word] = _digit_bytes(rest - high * 10**8) + _ASCII_ZEROS
        rest = high
    text[:] = digits.astype("<u8", copy=False).view(np.uint8).reshape(len(x), width)
    count = np.searchsorted(_POW10[1:], x, side="right") + 1
    keep[:] = np.arange(width) >= width - count[:, None]


def _shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's ``(f, k)`` of each finite double in ``bits``: the digits
    ``f`` (uint64, up to 17 of them, trailing zeros kept) and the exponent
    ``k`` (int64) of ``f * 10**k``. A zero gives digits that
    :func:`_float_words` does not use."""
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
    # The value in quarter units of the last place, scaled by 2**shift: cp,
    # whose products with g's two words are 128-bit (x1, x0) and (y1, y0).
    odd = c & 1
    cp = c << (shift + 2)
    index = k - _K_MIN
    g1, g0 = _G1.take(index), _G0.take(index)
    cp_lo, cp_hi = cp & _LOW32, cp >> 32
    x0, x1 = g0 * cp, _high_product(g0 & _LOW32, g0 >> 32, cp_lo, cp_hi)
    y0, y1 = g1 * cp, _high_product(g1 & _LOW32, g1 >> 32, cp_lo, cp_hi)
    # The rounding interval's bounds are cp + 2**s_up and cp - 2**s_down,
    # with s_up = shift + 1 and s_down = shift for a power of two closer
    # below, s_up otherwise: their products are those words plus or minus
    # g's words shifted.
    s_up = shift + 1
    s_down = s_up - closer_below
    upper = _shifted(x0, x1, g0, s_up, 1)[1], *_shifted(y0, y1, g1, s_up, 1)
    lower = _shifted(x0, x1, g0, s_down, -1)[1], *_shifted(y0, y1, g1, s_down, -1)
    vbl, vb, vbr = (_round_to_odd(*words) for words in (lower, (x1, y0, y1), upper))
    # Of s = floor(v * 10**-k) and s + 1, the one inside the interval, or
    # else the nearer, ties to even; but a multiple of 10 inside it is one
    # digit shorter. An odd significand's interval excludes its bounds.
    vbl += odd
    vbr -= odd
    s = vb >> 2
    inside_s = vbl <= s << 2
    inside_t = (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    nearer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    f = np.where(np.where(inside_s != inside_t, inside_s, nearer_s), s, s + 1)
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    inside_sp10 = vbl <= sp10 << 2
    inside_tp10 = tp10 << 2 <= vbr
    shorter = (s >= 10) & (inside_sp10 != inside_tp10)
    f = np.where(shorter, np.where(inside_sp10, sp10, tp10), f)
    return f, k


def _float_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each finite double in ``values`` as a row of
    :data:`_REPR_BYTES` bytes, three little-endian words, and its length."""
    bits = np.ascontiguousarray(values).view(np.uint64)
    f, k = _shortest_decimal(bits)
    ndigits = np.searchsorted(_POW10, f, side="right")
    d = k + ndigits - _D_MIN
    f = f * _POW10.take(17 - ndigits)
    zero = (bits << 1) == 0
    if zero.any():
        # "0.0" is the digit 0 ahead of the point.
        f[zero] = 0
        d[zero] = 1 - _D_MIN
    # f's digits padded to 17, a byte each: d1-d8 and d9-d16 in two words,
    # and d17.
    rest = f // 10
    high = rest // 10**8
    low = _digit_bytes(rest - high * 10**8)
    high = _digit_bytes(high)
    last = f - rest * 10
    # The significant digits end at the top nonzero byte of the three words,
    # read off the exponent of their sum as a float: a top byte below 10
    # rounds to below 16 times its place, never into the next byte.
    n = np.frexp(last * 2.0**128 + low * 2.0**64 + high)[1] + 7 >> 3
    np.maximum(n, 1, out=n)
    # Fixed notation keeps the digits ahead of the point in place and moves
    # the rest past the bytes put between them, "0." and zeros or ".".
    # Exponent notation starts as D = 1's "d.ddd".
    high += _ASCII_ZEROS
    low += _ASCII_ZEROS
    kept = high & _MASK0.take(d), low & _MASK1.take(d)
    high ^= kept[0]
    low ^= kept[1]
    shift = _SHIFT.take(d)
    back = 64 - shift
    words = [
        kept[0] | high << shift | _BETWEEN0.take(d),
        kept[1] | low << shift | high >> back | _BETWEEN1.take(d),
        (last + ord("0")) << shift | low >> back | _BETWEEN2.take(d),
    ]
    decpt = d + _D_MIN
    length = np.maximum(n + np.maximum(2 - decpt, 1), decpt + 2)
    rows = np.flatnonzero((decpt < -3) | (decpt > 16))
    if rows.size == len(bits):
        length = _exponent(words, n, d)
    elif rows.size:
        part = [word.take(rows) for word in words]
        length[rows] = _exponent(part, n.take(rows), d.take(rows))
        for word, cut in zip(words, part):
            word[rows] = cut
    # A "-" ahead of each negative repr, the words moved up a byte.
    minus = bits >> 63
    if minus.any():
        up = minus << 3
        down = 63 - up
        words = [
            words[0] << up | minus * ord("-"),
            words[1] << up | words[0] >> 1 >> down,
            words[2] << up | words[1] >> 1 >> down,
        ]
        length += minus.astype(bool)
    return np.stack(words, axis=1).astype("<u8", copy=False).view(np.uint8), length


def _exponent(words: list, n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cut the words of "d.ddd", with n digits, to the mantissa "d.dd..."
    or "d", follow it by the suffix "e±XX" of each ``D - _D_MIN``, and
    return their length."""
    mantissa = n + (n > 1)
    suffix = _SUFFIX.take(d)
    at = mantissa >> 3
    place = ((mantissa & 7) << 3).astype(np.uint64)
    spill = suffix >> 1 >> (63 - place)
    suffix <<= place
    for i, (word, keep) in enumerate(zip(words, _KEEP_WORDS)):
        word &= keep.take(mantissa)
        word |= np.where(at == i, suffix, 0)
        if i:
            word |= np.where(at == i - 1, spill, 0)
    return mantissa + _SUFFIX_BYTES.take(d)


def _shifted(lo, hi, g, s, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the 128-bit ``(hi, lo) + sign * g * 2**s``,
    for uint64 ``g < 2**63``, ``0 < s < 64`` and a sum in range, the carry
    or borrow read from the low word."""
    if sign > 0:
        low = lo + (g << s)
        return low, hi + (g >> (64 - s)) + (low < lo)
    low = lo - (g << s)
    return low, hi - (g >> (64 - s)) - (low > lo)


def _round_to_odd(x1, y0, y1) -> np.ndarray:
    """``g * cp / 2**127`` rounded to odd, from the high word ``x1`` of
    ``g0 * cp`` and the words ``(y1, y0)`` of ``g1 * cp``: the floor, with
    its low bit set when the dropped bits are not all zero."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _LOW63) + _LOW63) >> 63)


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
