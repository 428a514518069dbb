"""Quantum-proof strong randomness extraction.

Trevisan-style construction: a weak design assigns each output bit a subset
of the seed, and a one-bit extractor turns (source, seed subset) into one
output bit.  The one-bit extractor is Reed-Solomon-Hadamard: the source is
read as coefficients of a polynomial over GF(2^s), evaluated at the seed
point alpha, and the result is inner-product-hashed with the seed point
beta.  Because the extractor is strong, one seed serves every block of a
long raw stream.

The parameter calculator fixes the output length

    m = floor(h_min * n - 4*log2(1/epsilon) - 6)

and the field width s as the smallest power of two with
s >= log2(n) + log2(2*m/epsilon), giving the one-bit seed length t = 2s.
The weak design partitions its sets into groups of lines over GF(t); each
group occupies a fresh t^2-bit seed block, so the total seed length is
d = (number of groups) * t^2.

The map from source to output is GF(2)-linear for a fixed seed, so
``_extract`` propagates each output bit's linear functional once per seed,
in threads over ranges of at least 2048 bits, at most one per CPU, and
applies it to every block of the stream.  ``rsh_bit`` is the scalar
one-bit extractor (Horner's rule), kept as the reference it is tested
against.  Field elements are ``gf2``'s ``uint64`` words, ceil(s/64) per
element along a trailing axis, at every width.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import gf2

_RANGE_ROWS = 2048  # fewest output bits per range; near 1000 a thread saves nothing

__all__ = [
    "BitString",
    "ExtractorParams",
    "WeakDesign",
    "BlockExtractionResult",
    "output_length",
    "field_width",
    "weak_design",
    "rsh_bit",
    "extract",
    "block_extract",
    "generate_seed",
    "save_bits",
    "load_bits",
    "ingest_seed",
    "params_report",
]


class BitString:
    """An immutable-by-convention sequence of bits stored as a uint8 array."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        self.bits = arr

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_string(cls, text: str) -> "BitString":
        return cls(np.array([int(c) for c in text], dtype=np.uint8))

    def __len__(self) -> int:
        return int(self.bits.size)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return int(self.bits[index])
        return BitString(self.bits[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.all(self.bits == other.bits))

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError("length mismatch in bitwise xor")
        return BitString(np.bitwise_xor(self.bits, other.bits))

    def __repr__(self) -> str:
        if len(self) <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString(<{len(self)} bits>)"

    def to01(self) -> str:
        return "".join("01"[b] for b in self.bits)


def output_length(n: int, h_min: float, epsilon: float) -> int:
    """Extractable output length; clamps negative results to 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= h_min <= 1.0:
        raise ValueError(f"h_min must lie in [0, 1], got {h_min}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    value = h_min * n - 4.0 * math.log2(1.0 / epsilon) - 6.0
    return max(0, math.floor(value))


def field_width(n: int, m: int, epsilon: float) -> int:
    """Smallest power-of-two field width with 2^s covering both the number
    of polynomial coefficients and the one-bit error budget 2m/epsilon."""
    required = math.log2(max(n, 2)) + math.log2(2.0 * max(m, 1) / epsilon)
    s = 1
    while s < required:
        s *= 2
    return s


@dataclass(frozen=True)
class ExtractorParams:
    """Resolved extraction parameters for one source block."""

    n: int
    h_min: float
    epsilon: float
    m: int
    s: int
    t: int
    d: int

    @property
    def k(self) -> float:
        """Total min-entropy of the source in bits."""
        return self.h_min * self.n

    @property
    def passes(self) -> bool:
        return self.m >= 1

    @classmethod
    def for_source(cls, n: int, h_min: float, epsilon: float) -> "ExtractorParams":
        """Compute the full parameter set for an (n, h_min*n) source."""
        m = output_length(n, h_min, epsilon)
        if m == 0:
            return cls(n=n, h_min=h_min, epsilon=epsilon, m=0, s=0, t=0, d=0)
        s = field_width(n, m, epsilon)
        t = 2 * s
        d = len(_design_group_sizes(m, t)) * t * t if m > 1 else t
        return cls(n=n, h_min=h_min, epsilon=epsilon, m=m, s=s, t=t, d=d)


def _design_group_sizes(m: int, t: int) -> list[int]:
    """Partition m output bits into line-design groups.

    Each group lives in its own t^2-bit seed block and holds at most
    min(half the remaining bits, t^2) sets; the final group of at most t
    sets uses constant polynomials only.  This schedule is what makes the
    pairwise overlap bound sum to at most m - 1.
    """
    sizes = []
    rem = m
    while rem > t:
        g = min(rem // 2, t * t)
        sizes.append(g)
        rem -= g
    sizes.append(rem)
    return sizes


@dataclass(frozen=True)
class WeakDesign:
    """Family of seed-index sets, one per output bit.

    ``sets`` has shape (m, t): row i lists the d-domain indices feeding
    output bit i.  ``group_sizes`` records the block partition.
    """

    sets: np.ndarray
    m: int
    t: int
    d: int
    group_sizes: tuple

    def as_sets(self) -> list:
        return [frozenset(int(v) for v in row) for row in self.sets]


def weak_design(m: int, t: int) -> WeakDesign:
    """Build the block design of polynomial-line sets over GF(t).

    Within a group, set q (with slope b = q // t and offset a = q % t)
    contains the points {(e, b*e + a) : e in GF(t)} of its seed block, laid
    out as index e*t + value.  Same-slope lines are disjoint and
    different-slope lines meet in exactly one point, which bounds the
    overlap weight sum by m - 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if t < 1 or (t & (t - 1)):
        raise ValueError(f"t must be a positive power of two, got {t}")
    if m == 1:
        sets = np.arange(t, dtype=np.int64).reshape(1, t)
        return WeakDesign(sets=sets, m=1, t=t, d=t, group_sizes=(1,))

    width = t.bit_length() - 1  # t = 2^width, GF(t) elements are 0..t-1
    sizes = _design_group_sizes(m, t)
    e = np.arange(t, dtype=np.uint64)
    # products[b, e] = b*e in GF(t), shared by every group
    if width:
        products = gf2.gf_mul_vec(e[:, None, None], e[None, :, None], width)[..., 0]
    else:
        products = np.zeros((t, t), dtype=np.uint64)
    q = np.concatenate([np.arange(g, dtype=np.int64) for g in sizes])
    # built in place in one (m, t) array: every index is below d < 2^63
    sets = products[q // t]
    sets ^= (q % t).astype(np.uint64)[:, None]
    sets += e * np.uint64(t)
    sets = sets.view(np.int64)
    sets += np.repeat(np.arange(len(sizes), dtype=np.int64) * t * t, sizes)[:, None]
    d = len(sizes) * t * t
    return WeakDesign(sets=sets, m=m, t=t, d=d, group_sizes=tuple(sizes))


def rsh_bit(source: "BitString", seed: "BitString") -> int:
    """One output bit: Reed-Solomon evaluation then Hadamard hash.

    The seed's first half is the evaluation point alpha, the second half the
    mask beta, both s-bit field elements read MSB first.  The source is read
    as ceil(n/s) consecutive s-bit coefficients (MSB first, zero-padded at
    the end) of a polynomial evaluated at alpha by Horner's rule.
    """
    t = len(seed)
    if t == 0 or t % 2:
        raise ValueError(f"seed length must be positive and even, got {t}")
    s = t // 2
    n = len(source)
    if n < 1:
        raise ValueError("source must contain at least one bit")
    if (1 << s) < n:
        raise ValueError(f"field width {s} too small for {n} source bits")

    def pack(bits) -> int:
        value = 0
        for b in bits:
            value = (value << 1) | int(b)
        return value

    alpha = pack(seed.bits[:s])
    beta = pack(seed.bits[s:])
    poly = gf2.modulus(s)
    y = 0
    for i in range(-(-n // s) - 1, -1, -1):
        chunk = source.bits[i * s : (i + 1) * s]
        c = pack(chunk) << (s - chunk.size)  # zero-pad the trailing chunk
        y = gf2.gf_mul(y, alpha, s, poly) ^ c
    return (y & beta).bit_count() & 1


def _cpu_count() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _extract(sources: np.ndarray, seed_bits: np.ndarray, params: ExtractorParams) -> np.ndarray:
    """Trevisan extraction of stacked blocks: (blocks, n) 0/1 -> (blocks, m).

    Output bit i is ``rsh_bit(block, seed restricted to set i)`` =
    <beta_i, sum_j c_j alpha_i^j> = xor_j <u_ij, c_j> over the block's s-bit
    coefficients c_j, where <x, y> is the parity of x & y, u_i0 = beta_i and
    bit l of u_i,j+1 is <u_ij, alpha_i x^l>.  The masks u_ij depend on the
    seed alone, so each chunk costs one mask update shared by every block.
    """
    s, m = params.s, params.m
    gathered = seed_bits[weak_design(m, params.t).sets]  # (m, t)
    alpha = gf2.pack_bits(gathered[:, :s])  # (m, words)
    beta = gf2.pack_bits(gathered[:, s:])  # mask of chunk 0
    n_blocks, n = sources.shape
    n_chunks = -(-n // s)
    padded = np.pad(sources, ((0, 0), (0, n_chunks * s - n)))  # zero-pad the last chunk
    coeffs = gf2.pack_bits(padded.reshape(n_blocks, n_chunks, s))  # (blocks, chunks, words)
    out = np.empty((n_blocks, m), dtype=np.uint8)
    n_ranges = max(1, min(_cpu_count(), m // _RANGE_ROWS))
    bounds = [m * r // n_ranges for r in range(n_ranges + 1)]
    # each range's tables and step buffers are made here, in the calling
    # thread: what a worker allocates stays resident in its own glibc arena
    jobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        # row i, column k: alpha_i x^(s-1-k), so the parities against u come
        # out most significant bit first, as pack_bits reads them
        rows = np.ascontiguousarray(gf2.mul_table(alpha[lo:hi], s)[::-1].transpose(1, 0, 2))
        # a step's products, their xor over words (with one word, a view) and parities
        anded = np.empty(rows.shape, dtype=np.uint64)
        folded = anded[..., 0] if rows.shape[-1] == 1 else np.empty(rows.shape[:2], dtype=np.uint64)
        parities = np.empty(rows.shape[:2], dtype=np.uint8)
        jobs.append((rows, anded, folded, parities, beta[lo:hi], coeffs, out[:, lo:hi]))
    errors = []

    def work(job):
        try:
            _propagate(*job)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(job,)) for job in jobs[1:]]
    for thread in threads:
        thread.start()
    try:
        _propagate(*jobs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def _propagate(rows, anded, folded, parities, u: np.ndarray, coeffs: np.ndarray, out: np.ndarray):
    """Write into ``out`` the output bits of masks ``u`` under multiplication
    ``rows``, through the step buffers ``_extract`` made with them."""
    words = rows.shape[-1]
    acc = coeffs[:, 0, None] & u
    for j in range(1, coeffs.shape[1]):
        np.bitwise_and(u[:, None], rows, out=anded)
        if words > 1:
            np.bitwise_xor(anded[..., 0], anded[..., 1], out=folded)
            for w in range(2, words):
                folded ^= anded[..., w]
        np.bitwise_count(folded, out=parities)
        parities &= np.uint8(1)
        u = gf2.pack_bits(parities)
        acc ^= coeffs[:, j, None] & u
    out[...] = gf2.parity(acc)


def extract(source: "BitString", seed: "BitString", params: ExtractorParams) -> "BitString":
    """Full Trevisan extraction of one source block.

    Output bit i is ``rsh_bit(source, seed restricted to set i)`` of the
    weak design.  The seed is only read, never consumed.
    """
    if not params.passes:
        raise ValueError("parameters do not pass (m < 1); nothing to extract")
    if len(source) != params.n:
        raise ValueError(f"source has {len(source)} bits, expected n = {params.n}")
    if len(seed) != params.d:
        raise ValueError(f"seed has {len(seed)} bits, expected d = {params.d}")
    return BitString(_extract(source.bits[None, :], seed.bits, params)[0])


@dataclass(frozen=True)
class BlockExtractionResult:
    bits: "BitString"
    params: ExtractorParams
    n_blocks: int
    discarded_bits: int


def block_extract(
    raw: "BitString",
    seed: "BitString",
    h_min: float,
    epsilon: float,
    *,
    block_bits: int,
) -> BlockExtractionResult:
    """Extract a long raw stream in fixed-size blocks with one reused seed.

    The raw string is cut into ``floor(len(raw) / block_bits)`` full blocks;
    a trailing partial block is discarded (padding would dilute the entropy
    rate).  Every block uses the same parameters and the same seed — the
    strong-extractor property is what makes seed reuse sound.
    """
    if block_bits < 1:
        raise ValueError("block_bits must be positive")
    n_blocks = len(raw) // block_bits
    if n_blocks == 0:
        raise ValueError(
            f"raw stream of {len(raw)} bits is shorter than one {block_bits}-bit block"
        )
    params = ExtractorParams.for_source(block_bits, h_min, epsilon)
    if not params.passes:
        raise ValueError(
            "parameters do not pass (m < 1) at "
            f"block_bits={block_bits}, h_min={h_min}, epsilon={epsilon}"
        )
    if len(seed) != params.d:
        raise ValueError(f"seed has {len(seed)} bits, expected d = {params.d}")
    discarded = len(raw) - n_blocks * block_bits
    used = raw.bits[: n_blocks * block_bits].reshape(n_blocks, block_bits)
    return BlockExtractionResult(
        bits=BitString(_extract(used, seed.bits, params).ravel()),
        params=params, n_blocks=n_blocks, discarded_bits=discarded,
    )


def generate_seed(d: int, rng_seed: int) -> "BitString":
    """Pseudorandom seed for simulation runs.

    A deployed protocol needs genuinely uniform seed bits from an
    independent source; this helper exists so simulated pipelines are
    self-contained and reproducible.
    """
    rng = np.random.default_rng([rng_seed, 3])
    return BitString(rng.integers(0, 2, size=d, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Bit files: 8-byte little-endian bit count, then packed bytes MSB-first.


def save_bits(bits: "BitString", path):
    with open(path, "wb") as fh:
        fh.write(len(bits).to_bytes(8, "little"))
        fh.write(np.packbits(bits.bits).tobytes())


def load_bits(path) -> "BitString":
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated bit-count header")
        count = int.from_bytes(header, "little")
        body = fh.read()
    expected = -(-count // 8)
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))[:count]
    return BitString(bits)


def ingest_seed(path, d: int) -> "BitString":
    """Read seed material from a bit file; requires at least d bits."""
    bits = load_bits(path)
    if len(bits) < d:
        raise ValueError(f"{path}: seed file holds {len(bits)} bits, need {d}")
    return bits[:d]


def params_report(params: ExtractorParams) -> str:
    """Plain-text echo of the resolved parameter set."""
    lines = [
        f"n {params.n}",
        f"k {params.k:.6g}",
        f"h_min {params.h_min:.17g}",
        f"epsilon {params.epsilon:.17g}",
        f"s {params.s}",
        f"t {params.t}",
        f"d {params.d}",
        f"m {params.m}",
        f"passes {'yes' if params.passes else 'no'}",
    ]
    return "\n".join(lines) + "\n"
