"""How fast the break-count law reaches its geometric limit.

The mass at k = 0 is exactly 1/2 at every n; the rest of the
distribution drifts toward 2^-(k+1) at an O(1/n^2) rate, which the
deviation table and a goodness-of-fit read both make visible.
"""

import argparse

from brokenrecords import SimConfig
from brokenrecords.reports import converge_table, gof_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=97531)
    args = ap.parse_args()

    print("deviation from 2^-(k+1), exact sources (enumeration + the exact law):")
    table = converge_table([2, 4, 8, 64, 512], kmax=2, trials=0, seed=0)
    print(f"  {'n':>4}  {'k':>2}  {'abs_dev':>10}  {'bound':>10}")
    for row in table["rows"]:
        bound = row["remainder_bound"]
        btxt = f"{bound:.3e}" if bound else "-"
        print(f"  {row['n']:>4}  {row['k']:>2}  {row['abs_dev']:.3e}  {btxt:>10}")
    print("  k = 0 sits at the limit exactly; k = 1 shrinks like 1/(2n(n+1))")
    print()

    n = 300
    print(
        f"goodness of fit at n = {n}, trials = {args.trials}, seed = {args.seed}:"
    )
    rep = gof_report(SimConfig(n=n, trials=args.trials, seed=args.seed))
    for row in rep["rows"]:
        stat = row["statistic"]
        if stat == "tv":
            print(f"  vs {row['reference']}: total variation = {row['value']:.5f}")
        else:
            print(
                f"  vs {row['reference']}: chi2 = {row['value']:.2f} "
                f"on {row['dof']} dof, p = {row['p_value']:.3f}"
            )
    print(
        "  total variation sits at a few parts per thousand; the chi-square"
        " read\n  shows a six-figure sample only barely sensing the finite-n gap"
    )


if __name__ == "__main__":
    main()
