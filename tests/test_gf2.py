"""Binary field arithmetic, validated against axioms and counting oracles."""

import numpy as np
import pytest

from steerqrng import gf2


def poly_divmod_oracle(a, b):
    """Remainder of carry-less division, written independently bit by bit."""
    deg_b = b.bit_length() - 1
    while a.bit_length() - 1 >= deg_b and a:
        a ^= b << (a.bit_length() - 1 - deg_b)
    return a


def irreducible_by_trial_division(poly, width):
    """Check irreducibility by dividing by every polynomial of degree
    1..width//2: the brute-force oracle for Rabin's test."""
    if poly.bit_length() - 1 != width:
        return False
    for deg in range(1, width // 2 + 1):
        for low in range(1 << deg):
            divisor = (1 << deg) | low
            if poly_divmod_oracle(poly, divisor) == 0:
                return False
    return True


def count_irreducibles(width):
    """Number of degree-`width` irreducible polynomials over GF(2) by
    exhaustive trial division."""
    return sum(
        1
        for low in range(1 << width)
        if irreducible_by_trial_division((1 << width) | low, width)
    )


class TestIrreducibility:
    def test_table_entries_pass_rabin(self):
        for width, poly in gf2.IRREDUCIBLE.items():
            assert gf2.is_irreducible(poly, width), f"table entry for width {width}"

    def test_small_table_entries_pass_trial_division(self):
        for width, poly in gf2.IRREDUCIBLE.items():
            if width <= 16:
                assert irreducible_by_trial_division(poly, width)

    def test_rabin_agrees_with_trial_division_exhaustively(self):
        for width in range(1, 9):
            for low in range(1 << width):
                poly = (1 << width) | low
                assert gf2.is_irreducible(poly, width) == \
                    irreducible_by_trial_division(poly, width)

    def test_irreducible_counts_match_necklace_formula(self):
        # number of monic irreducibles of degree n over GF(2):
        # (1/n) sum_{d | n} mu(n/d) 2^d
        expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
        for width, count in expected.items():
            assert count_irreducibles(width) == count

    def test_find_irreducible_returns_valid(self):
        for width in (1, 2, 5, 9, 12, 20):
            poly = gf2.find_irreducible(width)
            assert poly.bit_length() - 1 == width
            assert gf2.is_irreducible(poly, width)

    def test_known_moduli(self):
        assert gf2.IRREDUCIBLE[8] == 0x11B  # x^8 + x^4 + x^3 + x + 1
        assert gf2.IRREDUCIBLE[16] == 0x1002B  # x^16 + x^5 + x^3 + x + 1

    def test_reducible_rejected(self):
        # x^4 + 1 = (x + 1)^4 over GF(2)
        assert not gf2.is_irreducible(0b10001, 4)
        # wrong degree
        assert not gf2.is_irreducible(0b111, 4)


class TestFieldAxioms:
    """Exhaustive field-structure checks in GF(2^4): no reference to the
    multiplication routine's internals, only to what a field must satisfy."""

    WIDTH = 4
    ORDER = 1 << WIDTH

    def test_identity_and_zero(self):
        for a in range(self.ORDER):
            assert gf2.gf_mul(a, 1, self.WIDTH) == a
            assert gf2.gf_mul(a, 0, self.WIDTH) == 0

    def test_commutative_associative(self):
        for a in range(self.ORDER):
            for b in range(self.ORDER):
                ab = gf2.gf_mul(a, b, self.WIDTH)
                assert ab == gf2.gf_mul(b, a, self.WIDTH)
                for c in (3, 7, 13):
                    left = gf2.gf_mul(ab, c, self.WIDTH)
                    right = gf2.gf_mul(a, gf2.gf_mul(b, c, self.WIDTH), self.WIDTH)
                    assert left == right

    def test_distributive_over_xor(self):
        for a in range(self.ORDER):
            for b in range(self.ORDER):
                for c in (5, 9):
                    left = gf2.gf_mul(a, b ^ c, self.WIDTH)
                    right = gf2.gf_mul(a, b, self.WIDTH) ^ gf2.gf_mul(a, c, self.WIDTH)
                    assert left == right

    def test_multiplicative_group_cyclic(self):
        # every nonzero element satisfies a^15 = 1 and some element has
        # multiplicative order exactly 15 (the group is cyclic of order 2^w-1)
        orders = []
        for a in range(1, self.ORDER):
            assert gf2.gf_pow(a, self.ORDER - 1, self.WIDTH) == 1
            k, acc = 1, a
            while acc != 1:
                acc = gf2.gf_mul(acc, a, self.WIDTH)
                k += 1
            orders.append(k)
            assert (self.ORDER - 1) % k == 0
        assert max(orders) == self.ORDER - 1

    def test_no_zero_divisors(self):
        for a in range(1, self.ORDER):
            for b in range(1, self.ORDER):
                assert gf2.gf_mul(a, b, self.WIDTH) != 0


class TestInverseAndPower:
    def test_pow_matches_repeated_multiplication(self, rng):
        for _ in range(20):
            a = int(rng.integers(0, 1 << 8))
            e = int(rng.integers(0, 12))
            acc = 1
            for _ in range(e):
                acc = gf2.gf_mul(acc, a, 8)
            assert gf2.gf_pow(a, e, 8) == acc

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gf2.gf_pow(3, -1, 8)


def to_words(values, width):
    """Python ints as the (..., ceil(width/64)) uint64 words the array
    functions take, most significant word first; ``from_words`` inverts it."""
    k = -(-width // 64)
    values = np.asarray(values, dtype=object)
    words = [[(int(v) >> (64 * i)) & ((1 << 64) - 1) for i in range(k - 1, -1, -1)]
             for v in values.ravel()]
    return np.array(words, dtype=np.uint64).reshape(values.shape + (k,))


def from_words(words):
    """(..., k) uint64 words as an object array of Python ints."""
    values = np.zeros(np.shape(words)[:-1], dtype=object)
    for word in np.moveaxis(np.asarray(words), -1, 0):
        values = (values << 64) | word.astype(object)
    return values


class TestVectorizedMultiplication:
    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32, 64])
    def test_matches_scalar(self, width, rng):
        size = 200
        hi = (1 << width) - 1
        a = rng.integers(0, hi, size=size, endpoint=True, dtype=np.uint64)
        b = rng.integers(0, hi, size=size, endpoint=True, dtype=np.uint64)
        got = from_words(gf2.gf_mul_vec(to_words(a, width), to_words(b, width), width))
        for i in range(size):
            assert got[i] == gf2.gf_mul(int(a[i]), int(b[i]), width)

    def test_top_bit_wraparound_64(self):
        # values with the top bit set force the overflow-reduction step
        a = [1 << 63, (1 << 64) - 1]
        b = [2, (1 << 64) - 1]
        got = from_words(gf2.gf_mul_vec(to_words(a, 64), to_words(b, 64), 64))
        for i in range(2):
            assert got[i] == gf2.gf_mul(a[i], b[i], 64)

    def test_broadcasting(self):
        a = to_words(7, 4)
        b = to_words(range(16), 4)
        got = from_words(gf2.gf_mul_vec(a, b, 4))
        assert got.shape == (16,)
        for i in range(16):
            assert got[i] == gf2.gf_mul(7, i, 4)

    @pytest.mark.parametrize("width", [128, 256])
    def test_wide_matches_scalar(self, width, rng):
        # more than one word per element: carries cross word boundaries
        a = [int.from_bytes(rng.bytes(width // 8), "big") for _ in range(100)]
        b = [int.from_bytes(rng.bytes(width // 8), "big") for _ in range(100)]
        a[0], b[0] = (1 << width) - 1, (1 << width) - 1  # every bit set
        got = from_words(gf2.gf_mul_vec(to_words(a, width), to_words(b, width), width))
        for i in range(100):
            assert got[i] == gf2.gf_mul(a[i], b[i], width)


class TestFunctionalRecurrence:
    """The recurrence the extractor propagates, checked against the field
    definition: with u_0 = beta and bit l of u_{j+1} the parity of
    u_j & (alpha * x^l), parity(c & u_j) is the parity of beta & (c alpha^j)."""

    @pytest.mark.parametrize("width", [4, 8, 64, 128, 256])
    def test_matches_field_definition(self, width, rng):
        def element():
            return int.from_bytes(rng.bytes(32), "big") >> (256 - width)

        for _ in range(3):
            alpha, beta = element(), element()
            rows = list(from_words(gf2.mul_table(to_words(alpha, width), width)))
            for l, row in enumerate(rows):
                assert row == gf2.gf_mul(alpha, 1 << l, width)
            u = beta
            for j in range(21):
                c = element()
                want = (beta & gf2.gf_mul(c, gf2.gf_pow(alpha, j, width), width)).bit_count() & 1
                assert (c & u).bit_count() & 1 == want, (alpha, beta, j)
                u = sum(((u & row).bit_count() & 1) << l for l, row in enumerate(rows))


class TestPackAndParity:
    @pytest.mark.parametrize("width", [1, 4, 8, 64, 128, 256])
    def test_match_python_ints(self, width, rng):
        bits = rng.integers(0, 2, size=(3, 7, width), dtype=np.uint8)
        packed = gf2.pack_bits(bits)
        assert packed.shape == (3, 7, -(-width // 64)) and packed.dtype == np.uint64
        values = from_words(packed)
        parity = gf2.parity(packed)
        assert parity.shape == (3, 7) and parity.dtype == np.uint8
        for i in range(3):
            for j in range(7):
                value = int("".join(str(v) for v in bits[i, j]), 2)
                assert values[i, j] == value
                assert parity[i, j] == value.bit_count() % 2
