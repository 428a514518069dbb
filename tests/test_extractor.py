"""Seeded extractor: parameters, weak design, field hashing, statistics."""

import hashlib
import math
import threading

import numpy as np
import pytest

from steerqrng import extractor as ext
from steerqrng import gf2
from steerqrng import simulate as sim
from steerqrng.extractor import BitString


def rsh_oracle(source_bits, seed_bits):
    """Independent one-bit extractor oracle.

    Evaluates the Reed-Solomon polynomial as an explicit power sum
    (coefficient times alpha^j, XOR-accumulated) instead of Horner's rule,
    then takes the masked parity.  Mirrors only the documented bit layout.
    """
    t = len(seed_bits)
    s = t // 2

    def pack(bits):
        value = 0
        for b in bits:
            value = (value << 1) | int(b)
        return value

    alpha = pack(seed_bits[:s])
    beta = pack(seed_bits[s:])
    n = len(source_bits)
    y = 0
    for j in range(-(-n // s)):
        chunk = source_bits[j * s:(j + 1) * s]
        c = pack(chunk) << (s - len(chunk))
        y ^= gf2.gf_mul(c, gf2.gf_pow(alpha, j, s), s)
    return bin(y & beta).count("1") & 1


#: (n, h_min, epsilon) whose automatic field width is 128 bits (m = 306).
WIDE_FIELD = (512, 1.0, 2.0 ** -50)
#: (n, h_min, epsilon) whose automatic field width is 256 bits (m = 435).
FOUR_WORD_FIELD = (1024, 0.9, 2.0 ** -120)


#: (h_min, blocks, m, digest, n, epsilon, s) of ``test_pinned_output_bits``
PINNED = [
    (0.4127, 3, 8168, "0c8ed6b0381492b11dce820f5030b5fd47b12ab07233d29ba8de647be8ae2632",
     20000, 1e-6, 64),
    (0.0363, 64, 640, "ec670c165bc4eb54d3ca7b522d20aa194f7ac39886c55c64626b15865258c2b3",
     20000, 1e-6, 64),
    (1.0, 4, 306, "a933b589d319876f0d3c74be05b5fe95c0a6f26e53166467623b5e452bb884cd",
     512, 2.0 ** -50, 128),  # the WIDE_FIELD shape
]


def assert_matches_oracle(outputs, sources, seed, params):
    """Every bit of (blocks, m) ``outputs`` equals the oracle on its block
    and its design set of the seed."""
    design = ext.weak_design(params.m, params.t)
    for block, source in zip(outputs, sources):
        want = [rsh_oracle(source.tolist(), seed.bits[row].tolist()) for row in design.sets]
        assert block.tolist() == want


def record_ranges(monkeypatch):
    """Wrap ``_propagate`` to list the number of output bits of each range."""
    propagated = []
    propagate = ext._propagate

    def recording(alpha, *args):
        propagated.append(len(alpha))
        propagate(alpha, *args)

    monkeypatch.setattr(ext, "_propagate", recording)
    return propagated


def design_masks(design):
    """Each set as a d-bit integer bitmask."""
    masks = []
    for row in design.sets:
        mask = 0
        for v in row.tolist():
            mask |= 1 << v
        masks.append(mask)
    return masks


def worst_overlap_weight(design):
    """max_i sum_{j<i} 2^{|S_i cap S_j|} by brute force over all pairs."""
    masks = design_masks(design)
    worst = 0
    for i in range(len(masks)):
        mi = masks[i]
        total = 0
        for j in range(i):
            total += 1 << (mi & masks[j]).bit_count()
        worst = max(worst, total)
    return worst


class TestOutputLength:
    def test_published_block_lengths(self):
        assert ext.output_length(20000, 0.042, 1e-6) == 754
        assert ext.output_length(20000, 0.030, 1e-6) == 514

    def test_clamps_to_zero(self):
        assert ext.output_length(100, 0.01, 1e-6) == 0
        assert ext.output_length(1, 1.0, 0.5) == 0

    def test_matches_formula(self):
        n, h, eps = 4096, 0.25, 1e-3
        expected = math.floor(h * n - 4 * math.log2(1 / eps) - 6)
        assert ext.output_length(n, h, eps) == expected

    def test_monotone_in_entropy_and_error(self):
        assert ext.output_length(20000, 0.05, 1e-6) > ext.output_length(20000, 0.04, 1e-6)
        assert ext.output_length(20000, 0.04, 1e-3) > ext.output_length(20000, 0.04, 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ext.output_length(0, 0.5, 1e-6)
        with pytest.raises(ValueError):
            ext.output_length(100, 1.5, 1e-6)
        with pytest.raises(ValueError):
            ext.output_length(100, 0.5, 0.0)


class TestFieldWidth:
    def test_covers_coefficients_and_error_budget(self):
        for n, m, eps in [(20000, 754, 1e-6), (32, 3, 0.9), (8192, 489, 2.0 ** -6)]:
            s = ext.field_width(n, m, eps)
            assert s & (s - 1) == 0
            assert s >= math.log2(n) + math.log2(2 * m / eps)
            # minimal: half of it would not cover
            assert s == 1 or s // 2 < math.log2(n) + math.log2(2 * m / eps)

    def test_known_widths(self):
        assert ext.field_width(20000, 754, 1e-6) == 64
        assert ext.field_width(32, 3, 0.9) == 8
        assert ext.field_width(32, 4, 0.2) == 16


class TestExtractorParams:
    def test_large_block_layout(self):
        params = ext.ExtractorParams.for_source(20000, 0.042, 1e-6)
        assert (params.m, params.s, params.t) == (754, 64, 128)
        assert params.d == 65536
        assert params.k == pytest.approx(840.0)
        assert params.passes

    def test_zero_output_parameters(self):
        params = ext.ExtractorParams.for_source(100, 0.01, 1e-6)
        assert params.m == 0 and params.s == 0 and params.d == 0
        assert not params.passes

    def test_single_output_bit_uses_plain_seed(self):
        params = ext.ExtractorParams.for_source(16, 0.5, 0.9)
        assert params.m == 1
        assert params.d == params.t

    def test_wide_field_layout(self):
        # a tight error budget alone pushes the field past 64 bits
        params = ext.ExtractorParams.for_source(*WIDE_FIELD)
        assert (params.m, params.s, params.t) == (306, 128, 256)


class TestWeakDesign:
    def test_validation(self):
        with pytest.raises(ValueError):
            ext.weak_design(0, 16)
        with pytest.raises(ValueError):
            ext.weak_design(4, 12)  # t not a power of two

    def test_sets_are_valid(self):
        for m, t in [(1, 16), (16, 32), (64, 64), (300, 16)]:
            design = ext.weak_design(m, t)
            assert design.sets.shape == (m, t)
            assert design.d == design.sets.max() + 1 or design.sets.max() < design.d
            for row in design.as_sets():
                assert len(row) == t  # all elements distinct
            assert design.sets.min() >= 0
            assert sum(design.group_sizes) == m

    def test_one_point_per_column_within_block(self):
        # every set is the graph of a function e -> value: exactly one element
        # per column index e of its seed block
        design = ext.weak_design(300, 16)
        t = 16
        for row in design.sets:
            block = row // (t * t)
            assert np.all(block == block[0])
            cols = (row - block[0] * t * t) // t
            assert sorted(cols.tolist()) == list(range(t))

    @pytest.mark.parametrize("m,t", [(16, 32), (64, 64), (300, 16), (754, 128)])
    def test_overlap_weight_bound_brute_force(self, m, t):
        design = ext.weak_design(m, t)
        assert worst_overlap_weight(design) <= m - 1

    def test_group_size_cap(self):
        # when the remaining output count exceeds 2 t^2, halving alone would
        # demand more lines than the t^2 that exist per block
        design = ext.weak_design(40000, 128)
        assert design.group_sizes[0] == 128 * 128
        assert design.sets.max() < design.d
        assert sum(design.group_sizes) == 40000

    def test_single_set_design(self):
        design = ext.weak_design(1, 8)
        assert design.d == 8
        assert design.as_sets()[0] == frozenset(range(8))


class TestRshBit:
    def test_matches_power_sum_oracle_exhaustively(self, rng):
        # n = 8, s = 4: all 256 sources against a spread of seeds
        seeds = [
            BitString.from_string("00000000"),
            BitString.from_string("11111111"),
            BitString.from_string("00001111"),
            BitString.from_string("10110010"),
            BitString(rng.integers(0, 2, size=8, dtype=np.uint8)),
            BitString(rng.integers(0, 2, size=8, dtype=np.uint8)),
        ]
        for seed in seeds:
            for value in range(256):
                source = BitString(np.array(
                    [(value >> (7 - i)) & 1 for i in range(8)], dtype=np.uint8))
                got = ext.rsh_bit(source, seed)
                want = rsh_oracle(source.bits.tolist(), seed.bits.tolist())
                assert got == want, (value, seed.to01())

    def test_linearity_exhaustive(self, rng):
        # the map source -> bit is GF(2)-linear for every fixed seed
        for _ in range(2):
            seed = BitString(rng.integers(0, 2, size=8, dtype=np.uint8))
            table = []
            for value in range(256):
                source = BitString(np.array(
                    [(value >> (7 - i)) & 1 for i in range(8)], dtype=np.uint8))
                table.append(ext.rsh_bit(source, seed))
            for x in range(256):
                for y in range(256):
                    assert table[x ^ y] == table[x] ^ table[y]

    def test_zero_mask_gives_zero(self, rng):
        source = BitString(rng.integers(0, 2, size=16, dtype=np.uint8))
        seed = BitString.from_string("10110100" + "00000000")
        assert ext.rsh_bit(source, seed) == 0

    def test_validation(self):
        source = BitString.from_string("1011")
        with pytest.raises(ValueError):
            ext.rsh_bit(source, BitString.from_string("101"))  # odd seed
        with pytest.raises(ValueError):
            ext.rsh_bit(source, BitString.zeros(0))
        with pytest.raises(ValueError):
            # s = 2 gives a 4-element field, too small for 5 source bits
            ext.rsh_bit(BitString.from_string("10111"), BitString.from_string("1011"))


class TestExtract:
    def test_matches_per_bit_composition_oracle(self, rng):
        """Vectorized extraction == scalar one-bit extraction over the weak
        design, over >= 1000 random (source, seed) pairs."""
        params = ext.ExtractorParams.for_source(32, 0.32, 0.9)
        assert (params.m, params.s, params.t, params.d) == (3, 8, 16, 256)
        design = ext.weak_design(params.m, params.t)
        for _ in range(1000):
            source = BitString(rng.integers(0, 2, size=32, dtype=np.uint8))
            seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
            got = ext.extract(source, seed, params)
            want = [ext.rsh_bit(source, seed[design.sets[i]])
                    for i in range(params.m)]
            assert got.bits.tolist() == want
            # and the scalar bits agree with the independent oracle
            for i in range(params.m):
                sub = seed[design.sets[i]]
                assert want[i] == rsh_oracle(source.bits.tolist(), sub.bits.tolist())

    def test_linear_in_source_exhaustive(self):
        # every multi-bit output is the xor of the outputs of the basis
        # sources it covers, over all 2^16 sources for one fixed seed (the
        # block path extracts all sources at once; its equivalence to
        # per-block extract is tested separately)
        n, h_min, epsilon = 16, 0.6, 0.9
        params = ext.ExtractorParams.for_source(n, h_min, epsilon)
        assert params.m >= 2
        seed = ext.generate_seed(params.d, rng_seed=3)
        basis = np.array([
            ext.extract(BitString(np.eye(n, dtype=np.uint8)[i]), seed, params).bits
            for i in range(n)
        ])
        values = np.arange(1 << n)
        sources = ((values[:, None] >> (n - 1 - np.arange(n))) & 1).astype(np.uint8)
        raw = BitString(sources.reshape(-1))
        block = ext.block_extract(raw, seed, h_min, epsilon, block_bits=n)
        assert block.n_blocks == 1 << n
        outputs = block.bits.bits.reshape(1 << n, params.m)
        predicted = (sources @ basis) % 2
        assert np.array_equal(outputs, predicted)

    def test_wider_field_matches_oracle(self, rng):
        params = ext.ExtractorParams.for_source(1000, 0.2, 1e-2)
        assert params.s == 32
        design = ext.weak_design(params.m, params.t)
        for _ in range(3):
            source = BitString(rng.integers(0, 2, size=1000, dtype=np.uint8))
            seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
            got = ext.extract(source, seed, params)
            for i in (0, params.m // 2, params.m - 1):
                assert got[i] == ext.rsh_bit(source, seed[design.sets[i]])

    def test_wide_field_matches_oracle(self, rng):
        # s = 128 runs the same batched core on two-word field elements
        params = ext.ExtractorParams.for_source(*WIDE_FIELD)
        assert params.s == 128
        source = BitString(rng.integers(0, 2, size=params.n, dtype=np.uint8))
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        got = ext.extract(source, seed, params)
        assert_matches_oracle(got.bits[None, :], source.bits[None, :], seed, params)

    def test_four_word_field_matches_oracle(self, rng):
        # s = 256: the xor over words runs past the first pair of words
        params = ext.ExtractorParams.for_source(*FOUR_WORD_FIELD)
        assert params.s == 256
        source = BitString(rng.integers(0, 2, size=params.n, dtype=np.uint8))
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        got = ext.extract(source, seed, params)
        assert_matches_oracle(got.bits[None, :], source.bits[None, :], seed, params)

    def test_single_bit_output_equals_plain_hash(self, rng):
        params = ext.ExtractorParams.for_source(16, 0.5, 0.9)
        assert params.m == 1 and params.d == params.t
        source = BitString(rng.integers(0, 2, size=16, dtype=np.uint8))
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        assert ext.extract(source, seed, params)[0] == ext.rsh_bit(source, seed)

    def test_seed_sensitivity(self, rng):
        params = ext.ExtractorParams.for_source(256, 0.5, 1e-2)
        assert params.m >= 64
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        flipped = BitString(seed.bits.copy())
        flipped.bits[7] ^= 1
        differing = 0
        for _ in range(5):
            source = BitString(rng.integers(0, 2, size=256, dtype=np.uint8))
            if ext.extract(source, seed, params) != ext.extract(source, flipped, params):
                differing += 1
        assert differing > 0

    def test_length_checks(self, rng):
        params = ext.ExtractorParams.for_source(32, 0.32, 0.9)
        source = BitString(rng.integers(0, 2, size=32, dtype=np.uint8))
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        with pytest.raises(ValueError):
            ext.extract(BitString.zeros(31), seed, params)
        with pytest.raises(ValueError):
            ext.extract(source, BitString.zeros(params.d - 1), params)
        zero_params = ext.ExtractorParams.for_source(100, 0.01, 1e-6)
        with pytest.raises(ValueError):
            ext.extract(BitString.zeros(100), seed, zero_params)


class TestBlockExtract:
    def test_equals_concatenated_single_blocks(self, rng):
        h, eps, block = 0.4, 1e-2, 512
        raw = BitString(rng.integers(0, 2, size=3 * block + 77, dtype=np.uint8))
        params = ext.ExtractorParams.for_source(block, h, eps)
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        result = ext.block_extract(raw, seed, h, eps, block_bits=block)
        assert result.n_blocks == 3
        assert result.discarded_bits == 77
        manual = BitString(np.concatenate([
            ext.extract(BitString(raw.bits[i * block:(i + 1) * block]), seed, params).bits
            for i in range(3)
        ]))
        assert result.bits == manual
        assert len(result.bits) == 3 * params.m

    def test_wide_field_matches_oracle(self, rng):
        n, h_min, epsilon = WIDE_FIELD
        raw = BitString(rng.integers(0, 2, size=2 * n + 5, dtype=np.uint8))
        params = ext.ExtractorParams.for_source(n, h_min, epsilon)
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        result = ext.block_extract(raw, seed, h_min, epsilon, block_bits=n)
        assert result.params.s == 128 and result.n_blocks == 2
        assert_matches_oracle(result.bits.bits.reshape(2, params.m),
                              raw.bits[:2 * n].reshape(2, n), seed, params)

    @pytest.mark.parametrize("h_min,n_blocks,m,digest,n,epsilon,s", PINNED)
    def test_pinned_output_bits(self, h_min, n_blocks, m, digest, n, epsilon, s):
        # SHA-256 of the packed output bits at the two heavy benchmark
        # shapes (few blocks at large m, many blocks at small m), recorded
        # with the per-block Horner evaluation that preceded the current core,
        # and at a two-word field, recorded when its elements were Python ints
        params = ext.ExtractorParams.for_source(n, h_min, epsilon)
        assert (params.m, params.s) == (m, s)
        raw = BitString(np.random.default_rng(4101).integers(
            0, 2, size=n_blocks * n, dtype=np.uint8))
        seed = ext.generate_seed(params.d, rng_seed=4102)
        result = ext.block_extract(raw, seed, h_min, epsilon, block_bits=n)
        assert len(result.bits) == n_blocks * m
        assert hashlib.sha256(np.packbits(result.bits.bits).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("cpus,rows", [
        (1, [8168]), (2, [4084, 4084]), (3, [2722, 2723, 2723]),
    ])
    def test_pinned_output_bits_any_range_count(self, monkeypatch, cpus, rows):
        # the m = 8168 case above, its masks propagated in 1, 2 and 3
        # ranges (3 uneven); the range count follows the CPU count
        monkeypatch.setattr(ext, "_cpu_count", lambda: cpus)
        propagated = record_ranges(monkeypatch)
        self.test_pinned_output_bits(*PINNED[0])
        assert sorted(propagated) == rows

    def test_small_output_stays_one_range(self, monkeypatch, rng):
        monkeypatch.setattr(ext, "_cpu_count", lambda: 8)
        propagated = record_ranges(monkeypatch)
        raw = BitString(rng.integers(0, 2, size=2 * 20000, dtype=np.uint8))
        params = ext.ExtractorParams.for_source(20000, 0.0363, 1e-6)
        seed = ext.generate_seed(params.d, rng_seed=5)
        ext.block_extract(raw, seed, 0.0363, 1e-6, block_bits=20000)
        assert propagated == [640]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_two_word_ranges_match_rsh_bit(self, monkeypatch, cpus):
        # m = 4794 at s = 128: two ranges above the range size with 2 CPUs
        n, h_min, epsilon = 5000, 1.0, 2.0 ** -50
        monkeypatch.setattr(ext, "_cpu_count", lambda: cpus)
        propagated = record_ranges(monkeypatch)
        params = ext.ExtractorParams.for_source(n, h_min, epsilon)
        assert (params.m, params.s) == (4794, 128)
        rng = np.random.default_rng(4103)
        raw = BitString(rng.integers(0, 2, size=2 * n, dtype=np.uint8))
        seed = BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        result = ext.block_extract(raw, seed, h_min, epsilon, block_bits=n)
        assert len(propagated) == cpus
        outputs = result.bits.bits.reshape(2, params.m)
        sets = ext.weak_design(params.m, params.t).sets
        # both ends of both ranges, and a spread of bits in between
        sampled = np.unique(np.concatenate([[0, 2396, 2397, 4793], rng.choice(params.m, 24)]))
        for block in range(2):
            source = BitString(raw.bits[block * n:(block + 1) * n])
            for i in sampled:
                assert outputs[block, i] == ext.rsh_bit(source, BitString(seed.bits[sets[i]]))

    def test_worker_failure_propagates(self, monkeypatch, rng):
        monkeypatch.setattr(ext, "_cpu_count", lambda: 2)
        caller = threading.get_ident()
        propagate = ext._propagate

        def failing(*args):
            if threading.get_ident() != caller:
                raise RuntimeError("range failed")
            propagate(*args)

        monkeypatch.setattr(ext, "_propagate", failing)
        params = ext.ExtractorParams.for_source(20000, 0.25, 1e-6)
        assert params.m >= 2 * ext._RANGE_ROWS
        raw = BitString(rng.integers(0, 2, size=20000, dtype=np.uint8))
        seed = ext.generate_seed(params.d, rng_seed=6)
        with pytest.raises(RuntimeError, match="range failed"):
            ext.block_extract(raw, seed, 0.25, 1e-6, block_bits=20000)

    def test_short_stream_rejected(self, rng):
        seed = BitString(rng.integers(0, 2, size=64, dtype=np.uint8))
        with pytest.raises(ValueError):
            ext.block_extract(BitString.zeros(100), seed, 0.4, 1e-2, block_bits=512)

    def test_seed_length_checked(self, rng):
        raw = BitString(rng.integers(0, 2, size=1024, dtype=np.uint8))
        with pytest.raises(ValueError):
            ext.block_extract(raw, BitString.zeros(10), 0.4, 1e-2, block_bits=512)

    def test_infeasible_parameters_rejected(self, rng):
        raw = BitString(rng.integers(0, 2, size=1024, dtype=np.uint8))
        seed = BitString.zeros(64)
        with pytest.raises(ValueError):
            ext.block_extract(raw, seed, 0.001, 1e-6, block_bits=512)


class TestSeedAndFiles:
    def test_generate_seed_deterministic(self):
        a = ext.generate_seed(1024, 7)
        b = ext.generate_seed(1024, 7)
        c = ext.generate_seed(1024, 8)
        assert a == b
        assert a != c
        assert len(a) == 1024
        assert set(np.unique(a.bits)) <= {0, 1}

    def test_bit_file_round_trip(self, rng, tmp_path):
        for n in (1, 7, 8, 13, 1024):
            bits = BitString(rng.integers(0, 2, size=n, dtype=np.uint8))
            path = tmp_path / f"bits_{n}.bin"
            ext.save_bits(bits, path)
            assert ext.load_bits(path) == bits

    def test_bit_file_truncation_detected(self, tmp_path):
        path = tmp_path / "bad.bin"
        ext.save_bits(BitString.from_string("10110011" * 4), path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(ValueError):
            ext.load_bits(path)

    def test_ingest_seed(self, rng, tmp_path):
        bits = BitString(rng.integers(0, 2, size=100, dtype=np.uint8))
        path = tmp_path / "seed.bin"
        ext.save_bits(bits, path)
        got = ext.ingest_seed(path, 64)
        assert got == BitString(bits.bits[:64])
        with pytest.raises(ValueError):
            ext.ingest_seed(path, 101)

    def test_params_report_fields(self):
        params = ext.ExtractorParams.for_source(20000, 0.042, 1e-6)
        text = ext.params_report(params)
        entries = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert int(entries["m"]) == 754
        assert int(entries["s"]) == 64
        assert int(entries["d"]) == 65536
        assert entries["passes"] == "yes"
        assert "r" not in entries


class TestBitString:
    def test_string_round_trip(self):
        text = "1011001110001"
        assert BitString.from_string(text).to01() == text

    def test_zeros_and_len(self):
        z = BitString.zeros(9)
        assert len(z) == 9
        assert z.to01() == "0" * 9

    def test_getitem(self):
        b = BitString.from_string("10110")
        assert b[0] == 1 and b[1] == 0
        assert isinstance(b[1:4], BitString)
        assert b[1:4].to01() == "011"
        assert b[np.array([0, 2, 3])].to01() == "111"

    def test_xor_and_eq(self):
        a = BitString.from_string("1100")
        b = BitString.from_string("1010")
        assert (a ^ b).to01() == "0110"
        assert a == BitString.from_string("1100")
        assert a != b


class TestStatisticalSanity:
    def test_extracted_stream_is_balanced(self):
        """End-to-end statistics: extract ~1e5 bits from simulated streams
        and check the monobit and runs z-scores.

        The heralding efficiency sits just above the certification threshold;
        the min-entropy rate used for sizing is the certified rate for this
        configuration (established independently in the certification tests).
        """
        eta = 0.543
        config = sim.ExperimentConfig(
            visibility=1.0,
            eta_alice=eta,
            eta_bob=1.0,
            pair_rate=3.3e6,
            duration_rng=1.0,
            trials_certification=1000,
            rng_seed=424242,
        )
        streams = sim.simulate_streams(config)
        pairs = sim.coincidences(
            streams.alice_tags, streams.bob_tags, config.coincidence_window
        )
        raw = sim.raw_bits(streams.alice_tags, pairs)
        assert len(raw) > 1_500_000

        h = -math.log2(1.5 - eta)
        eps = 2.0 ** -6
        block = 8192
        params = ext.ExtractorParams.for_source(block, h, eps)
        seed = ext.generate_seed(params.d, 99)
        result = ext.block_extract(raw, seed, h, eps, block_bits=block)
        bits = result.bits.bits
        n = bits.size
        assert n >= 100_000

        ones = int(bits.sum())
        z_monobit = (2.0 * ones - n) / math.sqrt(n)
        assert abs(z_monobit) < 4.0, f"monobit z = {z_monobit:.2f}"

        n1, n0 = ones, n - ones
        runs = 1 + int(np.count_nonzero(np.diff(bits)))
        expected = 1.0 + 2.0 * n1 * n0 / n
        variance = 2.0 * n1 * n0 * (2.0 * n1 * n0 - n) / (n * n * (n - 1.0))
        z_runs = (runs - expected) / math.sqrt(variance)
        assert abs(z_runs) < 4.0, f"runs z = {z_runs:.2f}"
