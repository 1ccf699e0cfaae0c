"""Exact ``%.17g`` CSV rows of float64 columns, formatted in numpy.

``rows(columns)`` gives, for one chunk of equal-length float64 columns, the
bytes ``"%.17g,...,%.17g\\n" % row`` gives each row, or None when a cell is
one it does not decide exactly: NaN, +-inf, a subnormal, a nonzero |x|
outside [1e-280, 1e280], or a rounding it cannot settle. The caller formats
such a chunk with the %-template.

Digits. For v = |x| with E = floor(log10 v) and k = 16 - E, the significand
is N = v 10^k rounded half-even, an integer in [1e16, 1e17). The product is
Dekker's two-product of v and the double-double 10^k = hi + lo (Veltkamp
split, no FMA), exact as p + err. For 0 <= k <= 22, hi is 10^k exactly and
lo = 0, so the fraction of v 10^k, and every tie, is exact. For other k the
product is known to about 1e-15, and a fraction within 1e-9 of one half
(undecided) sends the chunk to the template. The bounds on |x| keep the
split and the partial products of every 10^k used (k in [-264, 297]) clear
of overflow and underflow. log10 misjudges E near powers of ten, so the
range is checked on the exact product, E is moved by one and the product
formed again; a rounding up to 1e17 carries to 1e16 with E + 1. N's digits
are formed eight at a time in uint64 lanes (SWAR).

Layout, as %.17g's: X the exponent after rounding, fixed notation for
-4 <= X < 17, else d.ddde+-XX (at least two exponent digits); trailing zeros
and a bare dot dropped; zero written "0" or "-0". Each cell fills a slot of
_W bytes whose unused bytes are NUL, and one compress per chunk drops them.
In a slot the separator before the cell ("\\n" in the first column) and the
prefix (sign, "0.000") end at byte 6, the body (digits, dot) starts at byte
7 and the exponent ends at byte 29. A pattern (notation and X, significant
digits, separator, sign) gives the slot's constant bytes and the bytes that
take a digit of N, from N's digits at bytes 7-23 or, past a dot, 8-24.

The lookup tables are built on first use.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

_W = 32
_SCI, _ZERO = 21, 22  # pattern classes after the fixed ones, X + 4 in 0..20
_K_LO, _K_HI = -265, 298  # the powers 10^k that E in [-281, 280] asks for
_EXP_OFF = 400  # row X + _EXP_OFF of the exponent and class tables
_SPLIT = 134217729.0  # 2^27 + 1


class _Tables(NamedTuple):
    pow10: np.ndarray     # (k, 4): hi, hi's split halves and lo of 10^k
    zeros4: np.ndarray    # trailing zeros of 0..9999 written with 4 digits
    klass: np.ndarray     # (X + _EXP_OFF): the pattern of X, 17 digits, first column, x > 0
    exponent: np.ndarray  # (X + _EXP_OFF, _W): "e+XX" ending at byte 29, blank if fixed
    const: np.ndarray     # (pattern, _W): separator, prefix and dot
    first: np.ndarray     # (pattern, _W): 0xFF where digit i sits at byte 7 + i
    second: np.ndarray    # (pattern, _W): 0xFF where digit i sits at byte 8 + i


def _split(a):
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _fill(rows: Sequence[np.ndarray], cls: int, sig: int, sep: str, neg: bool) -> None:
    """Write one pattern (class, sig significant digits, separator, sign)
    into its rows of the const, first and second tables."""
    prefix = sep + ("-" if neg else "")
    if cls == _ZERO:
        body = ["0"]
    elif cls < 4:  # fixed, X < 0: 0.000ddd
        prefix, body = prefix + "0." + "0" * (3 - cls), list(range(sig))
    else:  # digits with a dot after digit X (scientific: after the first)
        point = 0 if cls == _SCI else cls - 4
        body = list(range(max(sig, point + 1)))
        if sig > point + 1:
            body.insert(point + 1, ".")
    rows[0][7 - len(prefix):7] = list(prefix.encode())
    for at, item in enumerate(body, start=7):
        if isinstance(item, str):
            rows[0][at] = ord(item)
        else:
            rows[1 + at - 7 - item][at] = 0xFF


@functools.cache
def _tables() -> _Tables:
    pow10 = []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            hi = 1 / 10 ** -k
            a, b = hi.as_integer_ratio()
            lo = (b - a * 10 ** -k) / (b * 10 ** -k)
        pow10.append((hi, *_split(hi), lo))
    n = np.arange(10000)
    zeros = np.full(10000, 4, np.uint8)
    for t in (3, 2, 1, 0):
        zeros[n % 10 ** (t + 1) != 0] = t
    # pattern ((class * 17 + sig - 1) * 2 + not first column) * 2 + negative
    tables = [np.zeros(((_ZERO + 1) * 17 * 4, _W), np.uint8) for _ in range(3)]
    for i in range(len(tables[0])):
        cls, sig, sep, neg = i // 68, i // 4 % 17 + 1, "\n,"[i // 2 % 2], bool(i % 2)
        _fill([table[i] for table in tables], cls, sig, sep, neg)
    klass = np.full(2 * _EXP_OFF + 1, _SCI)
    exponent = np.zeros((2 * _EXP_OFF + 1, _W), np.uint8)
    for x in range(-_EXP_OFF, _EXP_OFF + 1):
        if -4 <= x <= 16:
            klass[x + _EXP_OFF] = x + 4
        else:
            text = ("e%+03d" % x).encode()
            exponent[x + _EXP_OFF, 30 - len(text):30] = list(text)
    return _Tables(np.array(pow10), zeros, klass * 68 + 64, exponent, *tables)


def _scaled(v: np.ndarray, e: np.ndarray, pow10: np.ndarray):
    """v 10^(16-e) as (integer part, fraction in [0, 1)); an inexact 10^k can
    leave a tiny negative remainder, whose fraction rounds to 1 and is carried
    into the integer part (1e20 at k = -4 would otherwise read 10^16 - 1)."""
    hi, hh, hl, lo = pow10.take((16 - _K_LO) - e, axis=0).T
    p = v * hi
    vh, vl = _split(v)
    rem = ((vh * hh - p) + vh * hl + vl * hh) + vl * hl + v * lo
    whole = np.floor(rem)
    up = rem - whole == 1.0
    return p.astype(np.int64) + (whole + up).astype(np.int64), rem - whole - up


def _significands(v: np.ndarray, pow10: np.ndarray):
    """(N, X): v = N 10^(X-16) to 17 digits, N in [1e16, 1e17), or None."""
    e = np.floor(np.log10(v)).astype(np.int64)
    whole, frac = _scaled(v, e, pow10)
    moved = ((whole - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16).nonzero()[0]
    if moved.size:
        e[moved] += np.where(whole[moved] < 10 ** 16, -1, 1)
        w, f = _scaled(v[moved], e[moved], pow10)
        if ((w - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16).any():
            return None
        whole[moved], frac[moved] = w, f
    n = whole + (frac > 0.5)
    near = (np.abs(frac - 0.5) < 1e-9).nonzero()[0]
    if near.size:
        # k = 16 - e outside 0..22: 10^k is inexact and so is the fraction
        if ((e[near] < -6) | (e[near] > 16)).any():
            return None
        n[near] += (frac[near] == 0.5) & (whole[near] % 2 == 1)
    carry = (n == 10 ** 17).nonzero()[0]
    if carry.size:
        n[carry], e[carry] = 10 ** 16, e[carry] + 1
    return n, e


def rows(columns: Sequence[np.ndarray]) -> Optional[bytes]:
    """The %.17g CSV rows of equal-length float64 columns, or None (see module)."""
    if not len(columns[0]):
        return b""
    table = np.stack(columns, axis=1)
    x = table.reshape(-1)
    zero = x == 0
    # a zero's significand is never read; 1 + 2^-52 has no trailing zeros
    v = np.abs(np.where(zero, 1.0000000000000002, x))
    if not ((v >= 1e-280) & (v <= 1e280)).all():
        return None
    t = _tables()
    found = _significands(v, t.pow10)
    if found is None:
        return None
    n, e = found
    # N = d 10^16 + m 10^8 + l; the digits of m and l, four per 32-bit lane
    # and two per 16-bit lane, as little-endian ASCII
    high = n // 10 ** 8
    lead = high // 10 ** 8
    eights = np.empty((x.size, 2), np.int64)
    np.subtract(high, lead * 10 ** 8, out=eights[:, 0])
    np.subtract(n, high * 10 ** 8, out=eights[:, 1])
    fours = eights // 10 ** 4
    low4 = eights - fours * 10 ** 4
    trailing = t.zeros4.take(low4[:, 1])
    deep = (trailing == 4).nonzero()[0]
    if deep.size:
        z1, z2, z3 = t.zeros4.take(np.stack([fours[deep, 0], low4[deep, 0], fours[deep, 1]]))
        trailing[deep] = 4 + z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)
    lanes = (fours | (low4 << 32)).view(np.uint64)
    hundreds = ((lanes * 10486) >> 20) & 0x0000007F0000007F  # lane // 100
    lanes -= hundreds * 100
    lanes <<= 16
    lanes |= hundreds
    tens = ((lanes * 103) >> 10) & 0x000F000F000F000F  # lane // 10
    lanes -= tens * 10
    lanes <<= 8
    lanes |= tens
    lanes |= 0x3030303030303030
    index = e + _EXP_OFF
    pattern = t.klass.take(index)
    pattern -= trailing * 4
    np.putmask(pattern, zero, _ZERO * 68)
    pattern.reshape(table.shape)[:, 1:] += 2
    pattern += np.signbit(x)
    # N's digits at bytes 7-23 (first) and, one byte on, 8-24 (second)
    raw = np.zeros(x.size * _W + 8, np.uint8)
    first = raw[8:].reshape(x.size, _W)
    first[:, 7] = lead + ord("0")
    first.view("<u8")[:, 1:3] = lanes
    slot = t.first.take(pattern, axis=0)
    slot &= first
    part = t.second.take(pattern, axis=0)
    part &= raw[7:-1].reshape(x.size, _W)
    slot |= part
    slot |= t.const.take(pattern, axis=0, out=part, mode="clip")
    slot |= t.exponent.take(index, axis=0, out=part, mode="clip")
    flat = slot.reshape(-1)
    # the first cell's separator opens the text; the last row's closes it
    return flat[flat != 0][1:].tobytes() + b"\n"
