"""Four routes to the cheapest way of splitting a fixed demand.

Needing exactly N accepted items changes the problem: the demand must
be partitioned into batch sizes summing to N, and the design cost is
the sum of q**-n over its batches.  The package ships four solvers
with identical answers and very different costs:

  dp       exact, O(N*b): table over every sub-demand, batches up to the band b
  sweep    exact, ternary search over balanced candidates, one per count
  theorem  closed form built from the constant-size optimum
  brute    every integer partition; ground truth for small N
"""

import time

from pooldesign import brute_force_solve, dp_solve, sweep_solve, theorem_solve


def solve_all(demand, q, include_brute=True):
    solvers = [dp_solve, sweep_solve, theorem_solve]
    if include_brute:
        solvers.append(brute_force_solve)
    print(f"\ndemand N = {demand}, per-item pass probability q = {q}")
    for solver in solvers:
        sol = solver(demand, q)
        sizes = "|".join(str(n) for n in sol.partition.sizes)
        print(f"  {sol.method:>7}: {sizes:<18} expected tests {sol.expected_tests:.6f}")


def main():
    # a small demand where all four solvers can be compared directly
    solve_all(12, 0.9)

    # high quality: the answer hugs the constant-size optimum (99 at
    # q = 0.99) and spreads any remainder as evenly as possible
    solve_all(220, 0.99, include_brute=False)
    solve_all(250, 0.99, include_brute=False)

    print("\nStructure near multiples of the optimal constant size (q = 0.99):")
    for demand in (50, 198, 199, 201):
        sizes = dp_solve(demand, 0.99).partition.sizes
        print(f"  N = {demand:3d} -> {sizes}")

    # balancedness and a cost convex in the count leave sweep O(log N) counts
    demand = 2500
    t0 = time.perf_counter()
    dp = dp_solve(demand, 0.99)
    t_dp = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep = sweep_solve(demand, 0.99)
    t_sweep = time.perf_counter() - t0
    print(f"\nN = {demand}: dp {1e3 * t_dp:.2f} ms, sweep {1e3 * t_sweep:.2f} ms "
          f"({t_dp / t_sweep:.0f}x), values agree to "
          f"{abs(dp.expected_tests - sweep.expected_tests):.2e}")


if __name__ == "__main__":
    main()
