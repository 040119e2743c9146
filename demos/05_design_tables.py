"""Design tables: how the best split moves with demand and quality.

The same grids are available from the command line, e.g.

    pooldesign table --n-range 10:50:10 --p-list 0.01,0.05,0.1
    pooldesign solve --n 250 --p 0.01 --format json
    pooldesign simulate --sizes 83,83,84 --p 0.01 --reps 100000 --seed 7

This script builds a small table through the library directly.
"""

from pooldesign import dp_solve, optimal_constant_size


def main():
    demands = (10, 25, 50, 100, 250)
    defect_rates = (0.01, 0.05, 0.1, 0.25, 0.5)

    print(f"{'p':>6} {'q':>6} {'n*':>9}   design for each demand")
    for p in defect_rates:
        q = 1.0 - p
        pick = optimal_constant_size(q)
        tie = f"/{pick.n_star_high}" if pick.n_star_high else ""
        print(f"{p:>6} {q:>6} {str(pick.n_star_low) + tie:>9}")
        for demand in demands:
            sol = dp_solve(demand, q)
            sizes = "|".join(str(n) for n in sol.partition.sizes)
            if len(sizes) > 44:
                sizes = sizes[:41] + "..."
            print(f"{'':>23} N = {demand:<4} {sizes:<46} {sol.expected_tests:9.4f}")

    print("\nReading the table:")
    print(" - cheap tests come from pooling near the constant optimum n*")
    print(" - as p grows the optimum shrinks, to pairs at p = 1/2 and single items past it")
    print(" - expected tests fall as quality improves, for the same demand")


if __name__ == "__main__":
    main()
