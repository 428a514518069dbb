"""
States and assemblages
======================

Build the two-qubit states used throughout, steer them with the two
conjugate measurements, and look at the resulting assemblage: the set of
unnormalized conditional states on the trusted side, one per remote
setting/outcome pair, with a null outcome for no-detection events.
"""

import numpy as np

from steerqrng import assemblage as asm
from steerqrng import simulate as sim
from steerqrng.linalg import partial_trace_A, singlet_state

np.set_printoptions(precision=4, suppress=True)

# the singlet and a noisy version of it (visibility V mixes in white noise)
singlet = singlet_state()
werner = sim.werner_state(0.99)
# the singlet is pure, so its fidelity with the Werner state is Tr(W |psi><psi|)
print("singlet overlap of the V=0.99 Werner state:",
      round(float(np.trace(werner @ singlet).real), 4))

# steering measurements on the untrusted side: conjugate X and Z, one
# projector per setting and detected outcome
measurements = asm.default_measurements()
print("settings:", asm.SETTINGS, "effects array:", measurements.shape)

# the ideal assemblage at heralding efficiency 0.543: one array of shape
# (settings, outcomes, 2, 2), whose member sigma[x, a] is the trusted
# party's unnormalized conditional state for one remote outcome
assemblage = asm.ideal_assemblage(singlet, eta=0.543)
print("assemblage array:", assemblage.sigma.shape)
for x, setting in enumerate(asm.SETTINGS):
    for a, outcome in enumerate(asm.OUTCOMES):
        member = assemblage.sigma[x, a]
        print(f"\nsigma(a={asm.outcome_label(outcome)} | x={setting}), "
              f"trace {np.trace(member).real:.4f}")
        print(member)

# the null member carries the undetected weight: (1 - eta) times the
# trusted party's reduced state, independent of the setting
rho_b = partial_trace_A(singlet, 2, 2)
print("\n(1 - eta) * rho_B:")
print(0.457 * rho_b)

# whatever the remote setting, the members sum to the same reduced state:
# steering cannot be used to signal
print("\nsum over outcomes, per setting:")
print(assemblage.sigma.sum(axis=1))
report = asm.validate_assemblage(assemblage)
print("\nvalidation:", "ok" if report.ok else "FAILED")
print("  hermiticity error ", f"{report.hermiticity_error:.2e}")
print("  min eigenvalue    ", f"{report.min_eigenvalue:+.2e}")
print("  normalization err ", f"{report.normalization_error:.2e}")
print("  signaling error   ", f"{report.signaling_error:.2e}")
