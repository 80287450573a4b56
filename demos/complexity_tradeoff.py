"""Measurement cost against achievable entangling power.

Certifying the trace estimate costs rounds: a fixed error budget with
weight M allows entangling power sqrt(alpha^2 - M/L) at L rounds, climbing
toward alpha as rounds accumulate.  Where on that curve an experiment
actually operates depends on the unitary: error targets tuned to its trace
quadratures land exactly on the closed-form power sqrt(1 - |t|^2) * alpha.
"""

import math

import numpy as np

from dqc1 import (
    SeededRng,
    entpower_alpha,
    entpower_from_rounds,
    error_budget,
    haar_unitary,
    rounds_for_budget,
)

alpha = 0.8
pe = math.exp(-1.0)

# fixed budget: 5% absolute per quadrature, failure probability 1/e each
fixed = error_budget(0.05, 0.05, pe, pe)
print(f"fixed budget weight M = {fixed.m:.0f}, alpha = {alpha}")
print(f"{'rounds L':>10}  {'certified E':>12}")
floor = fixed.m / alpha**2
for factor in (1.01, 1.2, 2.0, 5.0, 20.0, 200.0):
    rounds = floor * factor
    print(f"{rounds:>10.0f}  {entpower_from_rounds(alpha, fixed.m, rounds):>12.6f}")
print(f"{'inf':>10}  {alpha:>12.6f}   (budget cost amortized away)")
print()

u = haar_unitary(4, SeededRng(3, 0))
t = complex(np.trace(u)) / 4
ceiling = entpower_alpha(u, alpha)
print(f"Haar unitary with t = {t.real:+.4f} {t.imag:+.4f}i")
print(f"closed-form entangling power: {ceiling:.12f}")

# tune the per-axis targets to this unitary: both axes then demand the
# same round count and the composition reproduces the closed form
target = 10**4
eps_x = 1.0 / (alpha * math.sqrt(target) * abs(t.real))
eps_y = 1.0 / (alpha * math.sqrt(target) * abs(t.imag))
tuned = error_budget(eps_x, eps_y, pe, pe)
rounds = rounds_for_budget(tuned, alpha, t)
certified = entpower_from_rounds(alpha, tuned.m, rounds)
print(f"tuned operating point:        {certified:.12f} at L = {rounds:.0f}")
print(f"composition gap:              {abs(certified - ceiling):.2e}")
print(f"gate-count proxy at n = 2:    {2 * rounds:.0f}")  # register size times rounds
