#!/usr/bin/env python3
"""Discover idempotent states on the Kac-Paljutkin quantum group by averaging
convolution powers of seeded random states, then decompose each limit and
report its Haar classification and TRO data.

The genuinely quantum feature: some idempotent states here are NOT Haar
idempotents (their support projection is not central), the smallest examples
of that phenomenon."""

import argparse

import numpy as np

from quidem import Functional, cesaro_limit, kac_paljutkin
from quidem.algebra import CHECK_TOL, is_central, support_projection
from quidem.tro import Analysis


def structured_seeds(kp):
    """States concentrated on single blocks reach the small-support limits;
    the counit block plus a rank-one piece of the 2×2 block reaches the
    non-Haar idempotent states."""
    for block in range(len(kp.algebra.block_dims)):
        blocks = [np.zeros((n, n)) for n in kp.algebra.block_dims]
        n = kp.algebra.block_dims[block]
        blocks[block] = np.eye(n) / n
        yield Functional(kp.algebra, kp.algebra.element(blocks))
    for p in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        blocks = [np.zeros((n, n)) for n in kp.algebra.block_dims]
        blocks[0] = np.eye(1) / 2
        blocks[4] = p / 2
        yield Functional(kp.algebra, kp.algebra.element(blocks))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=12, help="number of random state seeds")
    parser.add_argument("--seed", type=int, default=0, help="random generator seed")
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    kp = kac_paljutkin()
    rng = np.random.default_rng(args.seed)
    seeds = [kp.algebra.random_state(rng) for _ in range(args.seeds)]
    seeds += list(structured_seeds(kp))

    found = []
    for mu in seeds:
        result = cesaro_limit(kp, mu, tol=args.tol)
        if not result.converged or result.limit.norm < 1e-8:
            continue
        if all((result.limit - old).norm > 1e-6 for old in found):
            found.append(result.limit)

    print(f"distinct idempotent states discovered: {len(found)}\n")
    for k, omega in enumerate(found):
        a = Analysis(kp, omega, CHECK_TOL)
        support = support_projection(omega.density)
        ranks = tuple(int(round(np.trace(b).real)) for b in support.blocks)
        roundtrip = (a.recovery.functional - omega).norm if a.recovery.ok else float("nan")
        print(f"[{k}] haar={a.decomposition.haar}  support ranks per block={ranks} "
              f"central={is_central(support)}")
        print(f"    image dim={a.image.dim}  linking dims={a.linking.corner_dims()}  "
              f"recovery roundtrip={roundtrip:.2e}")


if __name__ == "__main__":
    main()
