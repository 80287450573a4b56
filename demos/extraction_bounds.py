"""Entangling-power bounds for a register that is not maximally mixed.

With an arbitrary register state rho the exact entangling power no longer
has a closed form, but it is sandwiched:

    1 - Tr sqrt(U rho U^+ rho)  <=  E_p  <=  sqrt(1 - |Tr(U rho)|^2)

and both ends scale by the control's spectral-gap factor.  The lower bound
collapses to zero whenever U and rho commute, even though the circuit can
still entangle.
"""

import numpy as np

from dqc1 import (
    ControlQubit,
    SeededRng,
    entpower_bounds,
    haar_unitary,
    lambda_factor,
    random_density,
)
from dqc1.linalg import SIGMA_X

print("qubit register biased toward |0>, U = X (bit flip)")
rho = np.diag([0.9, 0.1]).astype(np.complex128)
lower, upper = entpower_bounds(SIGMA_X, rho)
print(f"  bounds: [{lower:.6f}, {upper:.6f}]")
print()

print("same pair, control polarization alpha = 0.5:")
gap = lambda_factor(ControlQubit.from_alpha(0.5))  # the control's spectral-gap factor
lower, upper = entpower_bounds(SIGMA_X, rho)
print(f"  bounds: [{gap * lower:.6f}, {gap * upper:.6f}]   (both halved)")
print()

print("commuting pair (U diagonal in the eigenbasis of rho):")
rng = SeededRng(5, 0)
v = haar_unitary(4, rng)
rho = v @ np.diag([0.4, 0.3, 0.2, 0.1]) @ v.conj().T
u = v @ np.diag(np.exp(1j * rng.gen.uniform(0, 2 * np.pi, 4))) @ v.conj().T
lower, upper = entpower_bounds(u, rho)
print(f"  bounds: [{lower:.2e}, {upper:.6f}]")
print("  the lower bound is blind to commuting dynamics")
print()

print("random (U, rho) pairs, n = 2:")
print(f"  {'lower':>9}  {'upper':>9}  {'width':>9}")
for k in range(6):
    rng = SeededRng(k, 1)
    u = haar_unitary(4, rng)
    rho = random_density(4, 4, rng)
    lower, upper = entpower_bounds(u, rho)
    print(f"  {lower:>9.6f}  {upper:>9.6f}  {upper - lower:>9.6f}")
