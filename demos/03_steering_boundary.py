"""
Steering boundary of the Werner family
======================================

Sweep the visibility V of the Werner state at perfect heralding and watch
the local-hidden-state diagnostic mu change sign: a model exists (mu >= 0)
up to V = 1/sqrt(2) ~ 0.7071 and fails beyond it.  The dual of the same
program yields a steering functional whose value beta equals mu and which
is nonnegative on every unsteerable assemblage, so a negative beta is a
device-independent witness of steering.
"""

import math

import numpy as np

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import simulate as sim


def assemblage_at(v):
    return asm.ideal_assemblage(sim.werner_state(v), eta=1.0)


print("    V        mu          beta")
for v in np.arange(0.60, 0.81, 0.02):
    steering = cert.steering_functional(assemblage_at(float(v)))
    print(f"  {v:.2f}   {steering.mu:+.2e}   {steering.beta:+.2e}")

# bisect the sign change; a dozen solves pin it to three decimals
lo, hi = 0.6, 0.8
while hi - lo > 5e-4:
    mid = 0.5 * (lo + hi)
    if cert.steering_functional(assemblage_at(mid)).mu < -1e-6:
        hi = mid
    else:
        lo = mid
boundary = 0.5 * (lo + hi)
print(f"\nboundary visibility: {boundary:.4f}",
      f"(1/sqrt(2) = {1 / math.sqrt(2):.4f})")

# the functional taken from a steered point also certifies steering of any
# other steered assemblage it happens to detect, with no new optimization:
# it is laid out like the assemblage, and beta = sum_{x,a} Tr F[x, a] sigma[x, a]
steering = cert.steering_functional(assemblage_at(0.75))
probe = assemblage_at(0.78)
value = float(np.real(np.einsum("xaij,xaji->", steering.functional, probe.sigma)))
print(f"functional from V=0.75 evaluated on V=0.78: {value:+.2e} (< 0)")
