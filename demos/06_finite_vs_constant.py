"""The finite-demand optimum against the constant-size design it refines.

When every batch must have the same size, the best size is n*, the one
that maximizes items accepted per test.  A demand of exactly N items
cannot always be cut into batches of n*: the constant-size design takes
floor(N / n*) batches of n* and one batch of the N mod n* left over.
The finite-N optimum (theorem_solve) instead balances the demand over
its best batch count.

The table prints how much the optimum saves over the constant-size
design.  Nothing is saved for N <= n*, the saving peaks at a few
multiples of n*, and it vanishes as N grows, where the leftover batch
no longer matters.  At a tie rate (p = 1/k) the two designs can differ
by rounding alone; a saving within the shared cost tolerance is
reported as 0, and a saving is never negative.
"""

from pooldesign import (
    Partition,
    expected_waiting_time,
    optimal_constant_size,
    theorem_solve,
    values_close,
)


def constant_size_design(demand, n_star):
    """floor(N / n*) batches of n*, then one batch of N mod n*."""
    full, rest = divmod(demand, n_star)
    return Partition(tuple(run for run in ((n_star, full), (rest, 1)) if all(run)))


def saving(demand, q):
    """The optimum's saving over the constant-size design, as a fraction of the latter."""
    design = constant_size_design(demand, optimal_constant_size(q).n_star_low)
    constant = expected_waiting_time(design, q)
    optimum = theorem_solve(demand, q).expected_tests
    if values_close(optimum, constant):
        return 0.0
    assert optimum < constant, (demand, q, optimum, constant)
    return 1.0 - optimum / constant


def main():
    demands = (50, 150, 250, 1000, 10**5)
    print("saving of the finite-N optimum over the constant-size design")
    print(f"{'p':>5} {'n*':>4}" + "".join(f"{f'N = {n}':>12}" for n in demands))
    for p in (0.01, 0.05, 0.1):
        q = 1.0 - p
        row = "".join(f"{saving(n, q):>12.2%}" for n in demands)
        print(f"{p:>5} {optimal_constant_size(q).n_star_low:>4}{row}")


if __name__ == "__main__":
    main()
