"""Arithmetic in the binary fields GF(2^w).

Field elements are integers whose bits are the coefficients of a polynomial
over GF(2); addition is XOR and multiplication is carry-less polynomial
multiplication reduced by a fixed irreducible polynomial.  The moduli for
common widths come from the table below (standard low-weight choices, e.g.
x^8 + x^4 + x^3 + x + 1 for w = 8); ``is_irreducible`` can verify any entry
and ``find_irreducible`` searches for trinomials/pentanomials at widths the
table does not cover.

``gf_mul`` multiplies two Python ints and serves as the reference.  The
array functions (``pack_bits``, ``parity``, ``mul_table``, ``gf_mul_vec``)
serve the extractor at every width: an element of GF(2^w) is the last axis
of a ``uint64`` array, k = ceil(w/64) words, most significant word first, so
AND and XOR act word by word.  ``mul_table`` is the one shift-and-reduce
loop, and ``gf_mul_vec`` and the extractor's mask update are built on it.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

#: Irreducible polynomial (including the x^w term) per field width.
IRREDUCIBLE = {
    1: 0b11,              # x + 1
    2: 0b111,             # x^2 + x + 1
    3: 0b1011,            # x^3 + x + 1
    4: 0b10011,           # x^4 + x + 1
    5: 0b100101,          # x^5 + x^2 + 1
    6: 0b1000011,         # x^6 + x + 1
    7: 0b10000011,        # x^7 + x + 1
    8: 0b100011011,       # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | 0b101011,             # x^16 + x^5 + x^3 + x + 1
    32: (1 << 32) | 0b10001101,           # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | 0b11011,              # x^64 + x^4 + x^3 + x + 1
    128: (1 << 128) | 0b10000111,         # x^128 + x^7 + x^2 + x + 1
    256: (1 << 256) | 0b10000100101,      # x^256 + x^10 + x^5 + x^2 + 1
}


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials over GF(2)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _polymod(a: int, modulus: int) -> int:
    """Remainder of polynomial division over GF(2)."""
    deg_m = modulus.bit_length() - 1
    while a.bit_length() - 1 >= deg_m:
        a ^= modulus << (a.bit_length() - 1 - deg_m)
    return a


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def _poly_sqr_mod(a: int, modulus: int) -> int:
    return _polymod(_clmul(a, a), modulus)


def _prime_factors(n: int) -> list[int]:
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(poly: int, width: int) -> bool:
    """Rabin's test: poly of degree ``width`` is irreducible over GF(2) iff
    x^(2^width) == x (mod poly) and gcd(x^(2^(width/q)) - x, poly) = 1 for
    every prime divisor q of width."""
    if poly.bit_length() - 1 != width:
        return False
    x = _polymod(0b10, poly)
    # x^(2^k) mod poly by repeated squaring of x.
    powers = [x]
    acc = x
    for _ in range(width):
        acc = _poly_sqr_mod(acc, poly)
        powers.append(acc)
    if powers[width] != x:
        return False
    for q in _prime_factors(width):
        if _polygcd(powers[width // q] ^ x, poly) != 1:
            return False
    return True


def find_irreducible(width: int) -> int:
    """Search for a low-weight irreducible polynomial of the given degree."""
    if width < 1:
        raise ValueError("width must be positive")
    if width == 1:
        return 0b11  # x + 1: degree-1 polynomials have no middle term
    top = 1 << width
    # Trinomials x^w + x^k + 1 first, then pentanomials.
    for k in range(1, width):
        cand = top | (1 << k) | 1
        if is_irreducible(cand, width):
            return cand
    for k3 in range(3, width):
        for k2 in range(2, k3):
            for k1 in range(1, k2):
                cand = top | (1 << k3) | (1 << k2) | (1 << k1) | 1
                if is_irreducible(cand, width):
                    return cand
    raise ValueError(f"no low-weight irreducible polynomial found for width {width}")


@lru_cache(maxsize=None)
def modulus(width: int) -> int:
    """The module's irreducible polynomial for GF(2^width)."""
    if width in IRREDUCIBLE:
        return IRREDUCIBLE[width]
    return find_irreducible(width)


def gf_mul(a: int, b: int, width: int, poly: int | None = None) -> int:
    """Product in GF(2^width)."""
    if poly is None:
        poly = modulus(width)
    return _polymod(_clmul(a, b), poly)


def gf_pow(a: int, exponent: int, width: int, poly: int | None = None) -> int:
    """Power in GF(2^width) by square-and-multiply."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if poly is None:
        poly = modulus(width)
    result = 1
    base = a
    while exponent:
        if exponent & 1:
            result = gf_mul(result, base, width, poly)
        base = gf_mul(base, base, width, poly)
        exponent >>= 1
    return result


def _words(value: int, width: int) -> np.ndarray:
    """A Python int as the ``uint64`` words of a GF(2^width) element."""
    big_endian = value.to_bytes(8 * -(-width // 64), "big")
    return np.frombuffer(big_endian, dtype=">u8").astype(np.uint64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Field elements from the last axis of a 0/1 array, most significant
    bit first, as (..., ceil(width/64)) words; the width is ``bits.shape[-1]``."""
    bits = np.asarray(bits, dtype=np.uint8)
    # np.packbits pads at the end and the words hold the padding in front;
    # np.pad always copies, so it only runs when there is padding
    pad = -bits.shape[-1] % 64
    if pad:
        bits = np.pad(bits, [(0, 0)] * (bits.ndim - 1) + [(pad, 0)])
    return np.packbits(bits, axis=-1).view(">u8").astype(np.uint64)


def parity(x: np.ndarray) -> np.ndarray:
    """Parity of each element as a uint8 0/1 array: the popcount of the xor
    of its words."""
    return np.bitwise_count(reduce(np.bitwise_xor, np.moveaxis(x, -1, 0))) & np.uint8(1)


def mul_table(a: np.ndarray, width: int) -> np.ndarray:
    """a * x^l for l = 0 .. width-1, stacked along a new first axis: the
    terms a shift-and-xor product with ``a`` selects.

    Each doubling carries the top bit of every word into the next more
    significant word and is reduced at once, so values stay inside ``width``
    bits.
    """
    shifted = np.array(a, dtype=np.uint64)
    top = np.uint64((width - 1) % 64)  # the element's top bit within word 0
    mask = _words((1 << width) - 1, width)
    # poly - x^width: what gets XORed in when a doubling overflows the field
    poly_low = _words(modulus(width) ^ (1 << width), width)
    table = np.empty((width,) + shifted.shape, dtype=np.uint64)
    for l in range(width):
        table[l] = shifted
        overflow = poly_low * (shifted[..., :1] >> top)
        carry = shifted[..., 1:] >> np.uint64(63)
        shifted = (shifted << np.uint64(1)) & mask
        shifted[..., :-1] |= carry
        shifted ^= overflow
    return table


def gf_mul_vec(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Element-wise GF(2^width) product of word arrays: the xor of the rows
    of ``mul_table(a)`` selected by the bits of ``b``."""
    table = mul_table(a, width)
    b = np.asarray(b, dtype=np.uint64)
    result = np.zeros(np.broadcast_shapes(table.shape[1:], b.shape), dtype=np.uint64)
    for l in range(width):
        word = b[..., -1 - l // 64, None]
        result ^= table[l] * ((word >> np.uint64(l % 64)) & np.uint64(1))
    return result
