"""Walk the record stack through a hand-picked trajectory.

A value is a current record while nothing after it is larger.  Stored
newest-last, the surviving values form a decreasing staircase, and each
new observation pops the suffix it beats; the pop count is the number of
records broken at that step.
"""

from brokenrecords import RecordStack, records_by_scan, run_trajectory

VALUES = [0.31, 0.9, 0.12, 0.77, 0.5, 0.61, 0.02, 0.83, 0.44, 0.95]


def show_stack(stack):
    return "  ".join(f"({i},{v:.2f})" for i, v in stack)


def main() -> None:
    print("observations:", "  ".join(f"{v:.2f}" for v in VALUES))
    print()

    stack = RecordStack()
    for t, value in enumerate(VALUES):
        broken = stack.step(value)
        note = f"broke {broken}" if t else "first value"
        print(f"t={t}  x={value:.2f}  {note:11s} stack: {show_stack(stack)}")

    print()
    stats = run_trajectory(VALUES)
    print("break counts per step:", stats.b_path)
    print("record counts per step:", stats.r_path)
    print(
        f"balance: {stats.total_broken} broken + "
        f"{stats.r_path[-1]} surviving = {len(VALUES)} observations"
    )

    # The definitional scan recomputes the survivors from scratch and
    # must land on the same staircase.
    assert records_by_scan(VALUES) == stats.final_records
    print("definitional scan agrees with the incremental stack")


if __name__ == "__main__":
    main()
