"""
Heralding efficiency threshold
==============================

How much randomness the lossy singlet certifies, as a function of the
heralding efficiency eta.  An eavesdropper may always guess "no detection",
so below eta = 0.5 she predicts the outcome perfectly and the certified
min-entropy is zero; above it the guessing probability follows the line
p_guess = 3/2 - eta.
"""

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng.linalg import singlet_state

print("  eta   p_guess   3/2-eta   h_min [bits/trial]")
for eta_pct in range(44, 101, 4):
    eta = eta_pct / 100.0
    assemblage = asm.ideal_assemblage(singlet_state(), eta=eta)
    result = cert.guessing_probability(assemblage, "X")
    h_min = cert.min_entropy(result.p_guess)
    law = min(1.0, 1.5 - eta)
    print(f"  {eta:.2f}   {result.p_guess:.5f}   {law:.5f}   {h_min:.5f}")

# at eta = 1 every transmission is heralded and the measured bit is
# perfectly unpredictable: p_guess = 1/2, one certified bit per trial
assemblage = asm.ideal_assemblage(singlet_state(), eta=1.0)
result = cert.guessing_probability(assemblage, "X")
print("\nlossless singlet:",
      f"p_guess = {result.p_guess:.6f},",
      f"h_min = {cert.min_entropy(result.p_guess):.6f} bits per trial")

# the optimum comes with a certificate: an explicit decomposition of the
# assemblage into one branch per guess e, parts[e] laid out like the
# assemblage, whose correct-guess weight is p_guess
dec = result.decomposition
x_star = asm.SETTINGS.index(dec.x_star)
recovered = sum(float(part[x_star, guess].trace().real) for guess, part in enumerate(dec.parts))
print("decomposition recovers p_guess:", f"{recovered:.6f}")
print("branches sum back to the assemblage:",
      bool(abs(dec.parts.sum(axis=0) - assemblage.sigma).max() < 1e-6))
