"""Print the exact break-count laws and the identities behind them.

Everything here is rational arithmetic: the mass at zero, the two-part
k = 1 formula, the full law split by enumeration into its survivor tails
and the part where no older record survives, the identity that reads
each survivor tail off the masses, and the telescoping identity that
collapses the k = 1 sum to a closed form.
"""

from fractions import Fraction

from brokenrecords import (
    exact_pmf_b,
    geometric_limit,
    oracle_joint,
    prob_b0,
    prob_b1,
    remainder_bound,
)


def main() -> None:
    n = 8
    print(f"exact masses at n = {n}:")
    print(f"  P[B = 0] = {prob_b0(n)}  (one coin flip: is the newcomer a new record?)")
    law, joint = exact_pmf_b(n, 5), oracle_joint(n)
    print(
        f"  P[B = 1] = {prob_b1(n)}"
        f" = {joint.lone_mass(1)} (no survivor) + {joint.tail_mass(1)} (a survivor)"
    )
    print(f"           = 1/4 + 1/(2n(n+1)) = {Fraction(1, 4) + Fraction(1, 2 * n * (n + 1))}")
    print()

    print("full law P[B = k] from the Stirling row, split by enumeration into the")
    print("survivor tail P[B = k, an older record survives] and the rest:")
    for k in range(1, 6):
        full, tail, lone = law.prob(k), joint.tail_mass(k), joint.lone_mass(k)
        print(f"  k = {k}:  {float(full):.6f} = {float(tail):.6f} (tail) + {float(lone):.6f} (none survive)")
    print(f"  tail + lone == full at every k: {all(joint.tail_mass(k) + joint.lone_mass(k) == law.prob(k) for k in range(1, 6))}")
    # The survivor tail at k has the probability of more than k breaks, so
    # the masses alone carry it.
    print(f"  tail == P[B > k] at every k: {all(joint.tail_mass(k) == 1 - sum(law.prob(j) for j in range(k + 1)) for k in range(1, 6))}")
    print()

    print("telescoping identity, literal sum vs closed form:")
    for m in (1, 2, 10, 100):
        literal = sum(
            Fraction(1, i * (i + 1) * (i + 2)) for i in range(1, m + 1)
        )
        closed = Fraction(1, 4) - Fraction(1, 2 * (m + 1) * (m + 2))
        print(f"  m = {m:3d}:  {literal} == {closed}  ({literal == closed})")
    print("  the sum approaches 1/4 as m grows")
    print()

    print("distance to the limiting law 2^-(k+1), with the a priori bound:")
    for nn in (10, 100, 1000):
        law = exact_pmf_b(nn, 3)
        for k in (1, 2, 3):
            dev = abs(float(law.prob(k) - geometric_limit(k)))
            bound = remainder_bound(nn, k)
            print(f"  n = {nn:4d}, k = {k}:  |exact - limit| = {dev:.2e}  bound = {bound:.2e}")


if __name__ == "__main__":
    main()
