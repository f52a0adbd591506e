"""CSV text for float64 values, a block at a time: the bytes ``repr`` gives.

``repr`` of a float is the shortest decimal that reads back as the same float,
and of those the nearest (David Gay's ``dtoa``, mode 0). This module finds
those digits for a whole array with int64 and double-double arithmetic,
after Loitsch ("Printing floating-point numbers quickly and accurately with
integers", PLDI 2010) and Adams ("Ryū", PLDI 2018):

1. With ``E`` the decimal exponent of ``v``, ``x = |v| * 10**(16 - E)`` lies
   in [1e16, 1e17). An exact Dekker product with a double-double
   ``10**(16 - E)`` gives ``x`` as an int64 plus a fraction, good to ~1e-14.
2. The candidate of ``17 - j`` digits is ``x`` rounded to a multiple of
   ``10**j``. It reads back as ``v`` when it lies strictly inside ``v``'s
   rounding interval, of half-width ``ulp(v) / 2`` scaled alike (at least
   0.55, so ``j = 0`` always does). A coarser grid is never nearer, so ``j``
   grows while its candidate stays inside; the last one kept is ``repr``'s.
3. Where that arithmetic cannot decide, the value takes its text from
   ``repr``: a distance within ``_TOLERANCE`` of the half-width, a near-tie
   between the two candidates of the chosen length, a power-of-two
   significand (its interval is lopsided), ``|E| > 280`` (``10**(16 - E)``
   leaves the double range), and nan and infinities.

The text is laid out with byte masks, as ``&`` and ``|`` cost far less in
numpy than a gather or ``np.where``. Each value has a 32-byte row holding
its digits and exponent digits; a table indexed by (sign, digit count,
decimal point, exponent width and sign) gives three masks: the constant
bytes (sign, ``0.`` prefix, dot, ``e+``, ``.0``, ``PAD``), the digits shown
before the dot, and those after it, read from the row shifted by one byte.
UTF-8 never contains ``PAD``, so ``pack`` turns a block of padded CSV lines
of any text into file bytes with one ``bytes.translate``.
"""

from __future__ import annotations

import numpy as np

PAD = 0xFF
# sign | "0.000" and PAD | 17 digits and a dot | "e+" or ".0" | PAD | "0", 3 exponent digits
FIELD = 32
_BODY, _TAIL, _EXP_DIGITS = 7, 25, 29
_ALL_PAD = np.uint64(2**64 - 1)
_MAX_EXP = 280
_TOLERANCE = 1e-9     # far above the ~1e-14 error of x, far below the 0.55 half-width
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves
_CHUNK = 2048         # values per pass, so the temporaries stay in cache
_POW = 10 ** np.arange(18, dtype=np.int64)
_ASCII_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_WORDS4 = np.stack(np.meshgrid(*[_ASCII_DIGITS] * 4, indexing="ij"), axis=-1).reshape(
    10000, 4).view(np.uint32)[:, 0]    # the 4 ASCII digits of i, "0042" for 42


def _ten_table() -> np.ndarray:
    """Rows ``(hi, top, bottom, lo)`` for ``e`` from ``-_MAX_EXP - 1``:
    ``hi + lo = 10**(16 - e)`` to about 2**-106, and ``top + bottom = hi``
    is Dekker's split of ``hi``."""
    rows = []
    for p in range(_MAX_EXP + 17, -_MAX_EXP + 14, -1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den                      # int division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    top = _SPLIT * hi - (_SPLIT * hi - hi)
    return np.stack([hi, top, hi - top, lo], axis=1)


_TEN = _ten_table()

_FIXED_POINTS = range(-3, 17)   # repr writes 0.<digits> * 10**point without an exponent


def _masks(k: int, point: int | None, wide: bool = False,
           exp_neg: bool = False) -> tuple[bytes, bytes, bytes]:
    """The constant bytes and the two digit masks of ``repr``'s text for
    ``k`` digits and a decimal point at ``point`` (``None``: the exponent
    form, with 3 exponent digits if ``wide``)."""
    const, before, after = bytearray([PAD] * FIELD), bytearray(FIELD), bytearray(FIELD)
    dot, shown = None, k
    if point is None:
        dot = 1 if k > 1 else None
        const[_TAIL:_TAIL + 2] = b"e-" if exp_neg else b"e+"
        for i in range(_EXP_DIGITS if wide else _EXP_DIGITS + 1, _EXP_DIGITS + 3):
            const[i], before[i] = 0, PAD
    elif point <= 0:
        lead = b"0." + b"0" * -point
        const[1:1 + len(lead)] = lead
    elif point >= k:
        shown = point
        const[_TAIL:_TAIL + 2] = b".0"
    else:
        dot = point
    for t in range(shown + (dot is not None)):
        if t == dot:
            const[_BODY + t] = ord(".")
        else:
            const[_BODY + t] = 0
            (before if dot is None or t < dot else after)[_BODY + t] = PAD
    return bytes(const), bytes(before), bytes(after)


def _mask_tables() -> list[np.ndarray]:
    """``_masks`` for every text shape of a positive value, in class order
    (the decimal points of ``_FIXED_POINTS`` by digit count, then the
    exponent forms by digit count, exponent width and exponent sign), then
    the same for a negative value."""
    shapes = ([(k, point) for point in _FIXED_POINTS for k in range(1, 18)]
              + [(k, None, wide, exp_neg)
                 for k in range(1, 18) for wide in (False, True) for exp_neg in (False, True)])
    tables = (bytearray(), bytearray(), bytearray())
    for shape in shapes:
        for table, mask in zip(tables, _masks(*shape)):
            table += mask
    const, before, after = (np.tile(np.frombuffer(table, np.uint8).reshape(-1, FIELD), (2, 1))
                            for table in tables)
    const[len(shapes):, 0] = ord("-")
    return [const, before, after]


def _class_rows() -> tuple[np.ndarray, np.ndarray]:
    """For each decimal point from ``-_MAX_EXP - 1``, the table row of a
    positive value of one digit, and the step to the row of one more digit."""
    point = np.arange(-_MAX_EXP - 1, _MAX_EXP + 3)
    fixed = (point >= _FIXED_POINTS.start) & (point < _FIXED_POINTS.stop)
    first = np.where(fixed, (point - _FIXED_POINTS.start) * 17,
                     17 * len(_FIXED_POINTS) + (np.abs(point - 1) >= 100) * 2 + (point < 1))
    return first, np.where(fixed, 1, 4)


_CONST, _BEFORE, _AFTER = _mask_tables()
_CLASSES_PER_SIGN = _CONST.shape[0] // 2
_CLASS_FIRST, _CLASS_STEP = _class_rows()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x = a * 10**(16 - e)`` as an int64 whole part and a fraction in
    [0, 1), where ``x >= 2**53``; a smaller ``x`` gives a whole part that is
    still below 1e16."""
    hi, top, bottom, lo = np.take(_TEN, e + _MAX_EXP + 1, axis=0).T
    prod = a * hi
    spread = _SPLIT * a
    a_top = spread - (spread - a)
    a_bottom = a - a_top
    rest = ((((a_top * top - prod) + a_top * bottom) + a_bottom * top)
            + a_bottom * bottom) + a * lo
    carry = np.floor(rest)
    return prod.astype(np.int64) + carry.astype(np.int64), rest - carry


def repr_field(values: np.ndarray, spell=repr) -> np.ndarray:
    """An ``(n, w)`` uint8 array: row ``i``, with its ``PAD`` bytes dropped,
    is the ASCII text of ``repr(float(values.flat[i]))``. ``w`` is ``FIELD``,
    or 25 when no value needs an exponent or a trailing ``.0``; the
    values left to ``repr``, nan and infinities among them, take ``spell``'s."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.empty((v.size, FIELD), np.uint8)
    for start in range(0, v.size, _CHUNK):
        _repr_chunk(v[start:start + _CHUNK], out[start:start + _CHUNK], spell)
    tail = out.view("<u8")[:, _TAIL // 8] | np.uint64(2 ** (8 * (_TAIL % 8)) - 1)
    return out if (tail != _ALL_PAD).any() else out[:, :_TAIL]


def _repr_chunk(v: np.ndarray, out: np.ndarray, spell) -> None:
    n = v.size
    bits = v.view(np.uint64)
    a = np.abs(v)
    zero = a == 0
    # nan, infinities, |E| > 280 and power-of-two significands (zero too)
    skip = ~((a >= 1e-280) & (a < 1e281)) | (bits & np.uint64(2**52 - 1) == 0)
    fallback = skip & ~zero
    a[skip] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)

    whole, frac = _scaled(a, e)
    off = np.flatnonzero((whole < _POW[16]) | (whole >= _POW[17]))
    if off.size:    # log10 missed the exponent by one, next to a power of ten
        e[off] += np.where(whole[off] < _POW[16], -1, 1)
        whole[off], frac[off] = _scaled(a[off], e[off])
    half = np.spacing(a) * (0.5 * np.take(_TEN[:, 0], e + _MAX_EXP + 1))
    half[skip] = -1.0                   # never inside, never on the edge

    # j grows while x's nearest multiple of 10**j stays inside the interval.
    grid = np.zeros(n, np.int64)
    lanes = np.arange(n)
    w, f, h = whole, frac, half
    for j in range(1, 17):
        r = w % _POW[j]
        gap = np.minimum(r + f, (_POW[j] - r) - f) - h
        edge = np.abs(gap) <= _TOLERANCE
        if edge.any():
            fallback[lanes[edge]] = True
        inside = np.flatnonzero(gap < -_TOLERANCE)
        if not inside.size:
            break
        lanes, w, f, h = (np.take(x, inside) for x in (lanes, w, f, h))
        grid[lanes] = j

    # The nearest multiple of 10**grid, unless both neighbours are as near.
    scale = np.take(_POW, grid)
    q, r = np.divmod(whole, scale)
    down = r + frac
    up = (scale - r) - frac
    fallback |= ~skip & (np.abs(down - up) <= _TOLERANCE)
    digits = (q + (up < down)) * scale
    carried = digits == _POW[17]        # 9.99... rounded up to 10
    digits[carried] = _POW[16]
    k = np.where(carried, 1, 17 - grid)
    point = e + 1 + carried             # the value is 0.<digits> * 10**point
    digits[zero] = 0
    k[zero] = 1
    point[zero] = 1

    # 32 bytes a value, in 8 words: the 17 digits at bytes 7-23 (words 1-5)
    # and the exponent's at 29-31 (word 7). The buffer starts 8 bytes early,
    # so the digits after a dot are read one byte on from the same bytes.
    buf = np.empty(8 * n + 2, np.uint32)
    row = buf[2:].reshape(n, 8)
    top, low = np.divmod(digits, _POW[8])
    lead, high = np.divmod(top, _POW[8])
    groups = (lead, *np.divmod(high, _POW[4]), *np.divmod(low, _POW[4]),
              np.minimum(np.abs(point - 1), 9999))
    for col, group in zip((1, 2, 3, 4, 5, 7), groups):
        row[:, col] = np.take(_WORDS4, group)
    text = buf.view(np.uint8)

    i = point + _MAX_EXP + 1
    cls = np.take(_CLASS_FIRST, i) + np.take(_CLASS_STEP, i) * (k - 1)
    cls += (bits >> np.uint64(63)).astype(np.int64) * _CLASSES_PER_SIGN
    flat = out.reshape(-1)
    np.bitwise_and(text[8:], np.take(_BEFORE, cls, axis=0).reshape(-1), out=flat)
    flat |= text[7:-1] & np.take(_AFTER, cls, axis=0).reshape(-1)
    flat |= np.take(_CONST, cls, axis=0).reshape(-1)

    slow = np.flatnonzero(fallback)
    if slow.size:
        out[slow] = text_field([spell(x) for x in v[slow].tolist()], FIELD)


def text_field(texts, width: int | None = None) -> np.ndarray:
    """An ``(n, width)`` uint8 array of the UTF-8 bytes of each string,
    ``PAD``-filled on the right; ``width`` defaults to the longest."""
    raw = [t.encode("utf-8") for t in texts]
    if width is None:
        width = max(map(len, raw), default=0)
    buf = b"".join(r.ljust(width, bytes([PAD])) for r in raw)
    return np.frombuffer(buf, np.uint8).reshape(len(raw), width)


def join(*fields: np.ndarray) -> np.ndarray:
    """Fields side by side along the last axis; the others broadcast. Empty
    fields add nothing, and a single field left is returned uncopied."""
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    wide = [np.broadcast_to(f, shape + f.shape[-1:]) for f in fields if f.shape[-1]]
    if len(wide) == 1:
        return wide[0]
    return np.concatenate(wide or [np.empty(shape + (0,), np.uint8)], axis=-1)


def pack(*fields: np.ndarray) -> bytes:
    """The lines that ``join`` makes of ``fields``, as bytes with every
    ``PAD`` dropped."""
    return join(*fields).tobytes().translate(None, bytes([PAD]))
