"""
Seeded extraction walkthrough
=============================

From a block of raw bits with certified min-entropy to nearly uniform
output.  Each output bit is a Reed-Solomon/Hadamard hash of the whole
block, keyed by a small slice of the seed; a weak design with bounded
pairwise overlap lets all output bits share one seed, and the quantum-proof
strong-extractor property means that seed can be published and reused.
"""

import numpy as np

from steerqrng import extractor as ext

# the standard operating point: 20000-bit blocks carrying 0.042 bits of
# certified min-entropy per raw bit, output within 1e-6 of uniform
params = ext.ExtractorParams.for_source(20_000, 0.042, 1e-6)
print("block parameters")
print(f"  raw bits per block     n = {params.n}")
print(f"  min-entropy            k = {params.k:.0f} bits")
print(f"  output bits            m = {params.m}")
print(f"  field width            s = {params.s}")
print(f"  bits per one-bit seed  t = {params.t}")
print(f"  total seed length      d = {params.d}")

# the weak design: m subsets of seed positions, size t each, arranged so
# that sum_{j<i} 2^(overlap with earlier sets) never exceeds m
design = ext.weak_design(params.m, params.t)
print("\nweak design")
print(f"  {design.m} sets of {design.t} indices into a {design.d}-bit seed")
print(f"  group sizes: {design.group_sizes}")
pair = (design.sets[0], design.sets[1])
print(f"  |S_0 intersect S_1| = {len(np.intersect1d(*pair))}")

# extract one demo block (uniform raw bits stand in for the real source;
# the extractor never inspects the input distribution); output bit i is the
# xor over the block's s-bit chunks c_j of parity(c_j & u_ij), with masks
# u_ij that depend on the seed alone and are propagated chunk by chunk
rng = np.random.default_rng(7)
source = ext.BitString(rng.integers(0, 2, size=params.n, dtype=np.uint8))
seed = ext.generate_seed(params.d, rng_seed=123)
output = ext.extract(source, seed, params)
print("\none block extracted:", len(output), "bits")
print("  first 64:", output[:64].to01())

# one output bit by hand: gather the seed slice for bit 0 and apply the
# one-bit extractor directly
bit0 = ext.rsh_bit(source, seed[design.sets[0]])
print("  bit 0 recomputed from its seed slice:", bit0, "==", output[0])

# flipping a single source bit flips about half the output bits
flipped = ext.BitString(source.bits.copy())
flipped.bits[1234] ^= 1
changed = int(np.sum(output.bits != ext.extract(flipped, seed, params).bits))
print(f"\none flipped source bit changes {changed}/{len(output)} output bits")
