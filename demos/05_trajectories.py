"""Measured dynamics as a Markov chain: simulate, estimate, compare.

Applying U and measuring a PVM each step makes the outcome sequence a Markov
chain with P_ij = |<phi_j|U|phi_i>|^2.  The plug-in conditional block
estimator recovers the chain's entropy rate from the raw symbols, and
measuring only every K-th step swaps U for U^K.
"""

import numpy as np

from qchaos import (
    EigenphasePair,
    PvmBasis,
    empirical_entropy_rate,
    entropy_rate_experiment,
    markov_entropy_rate,
    sample_trajectory,
    transition_matrix,
)
from qchaos.phases import unitary_power

PI = np.pi

# theta = pi/3 in the x basis: transition probabilities {3/4, 1/4}.
pair = EigenphasePair(0.0, PI / 3)
u = unitary_power(pair)  # Diag(e^{i phi}, e^{i psi})
basis = PvmBasis.x_basis()
print("exact transition matrix:\n", transition_matrix(u, basis))

out = sample_trajectory(pair, basis, steps=10 ** 6, seed=31)
counts = np.zeros((2, 2))
np.add.at(counts, (out[:-1], out[1:]), 1.0)  # transitions i -> j
print("empirical frequencies:\n", np.round(counts / counts.sum(axis=1, keepdims=True), 4))

res = entropy_rate_experiment(pair, "x", 10 ** 6, 8, seed=31)
print(f"entropy rate: empirical {res.empirical:.6f} vs predicted "
      f"{res.predicted:.6f} (|diff| = {res.abs_diff:.2e})")

# Pauli X measured every step alternates deterministically (rate 0), and
# measured every second step it freezes entirely, since X^2 = I.
x = np.array([[0, 1], [1, 0]], dtype=complex)
comp = PvmBasis.computational(2)
every = sample_trajectory(x, comp, steps=30000, seed=3)
skip = sample_trajectory(x, comp, steps=30000, seed=3, period=2)
print(f"\nPauli X, K=1: first outcomes {every[:8].tolist()} ... "
      f"rate = {empirical_entropy_rate(every, 4):.3f}")
print(f"Pauli X, K=2: first outcomes {skip[:8].tolist()} ... "
      f"rate = {empirical_entropy_rate(skip, 4):.3f}")

# A chaotic unitary with the right basis is a fair coin:
coin = sample_trajectory(np.diag([1.0, 1j]), basis, steps=10 ** 6, seed=7)
print(f"\nDiag(1, i) in the x basis: mean outcome {coin.mean():.4f}, "
      f"rate = {empirical_entropy_rate(coin, 8):.4f} bits/step")
print("predicted:", markov_entropy_rate(transition_matrix(np.diag([1.0, 1j]), basis)))
