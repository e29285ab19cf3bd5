"""Closed-form qubit entropy vs the variational maximizer.

The PVM entropy of a qubit unitary depends only on the circular distance
theta between its eigenphases: 1 bit once theta >= pi/2, and
eta(cos^2(theta/2)) + eta(sin^2(theta/2)) below.  The derivative-free
optimizer should land on the same number without knowing any of that.
"""

import numpy as np

from qchaos import (
    EigenphasePair,
    PvmBasis,
    eigenphases_of,
    markov_entropy_rate,
    order_verdicts,
    pvm_entropy_optimize,
    qubit_entropy_closed,
    transition_matrix,
)


def random_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


rng = np.random.default_rng(1)

print("theta/pi   closed form   optimizer     |diff|")
for _ in range(8):
    u = random_unitary(rng)
    pair, _ = eigenphases_of(u)
    closed = qubit_entropy_closed(pair)
    found = pvm_entropy_optimize(u, restarts=16, seed=0)
    print(f"{order_verdicts(pair).theta / np.pi:8.4f}   {closed:.9f}   {found.value:.9f}"
          f"   {abs(closed - found.value):.2e}")

# The optimizer also hands back the measurement basis that achieves the max.
# For theta = pi (a Pauli-Z-like unitary) the x basis gives a deterministic
# swap chain, while the optimal basis sits at pi/8 and yields the fair coin:
z = np.diag([1.0, -1.0])
swap_rate = markov_entropy_rate(transition_matrix(z, PvmBasis.x_basis()))
best = pvm_entropy_optimize(z, restarts=16, seed=0)
best_chain = transition_matrix(z, best.optimal_basis)
print(f"\nPauli Z in the x basis:   rate = {swap_rate:.6f} (deterministic swap)")
print(f"Pauli Z, optimized basis: rate = {best.value:.6f}")
print("optimal-basis chain:\n", np.round(best_chain, 6))

# Sanity: the reported value is exactly the rate of the reported basis.
achieved = markov_entropy_rate(transition_matrix(z, best.optimal_basis))
assert abs(achieved - best.value) < 1e-9

# d = 3 works the same way, just without a closed form to compare against.
u3 = random_unitary(rng, d=3)
found3 = pvm_entropy_optimize(u3, restarts=12, seed=2)
print(f"\nrandom d=3 unitary: best-found rate = {found3.value:.6f} bits "
      f"(max possible log2(3) = {np.log2(3):.6f})")
