#!/usr/bin/env python3
"""Reproduce the headline sweep tables and dump them as CSV.

Runs the transmit-power sweep on both terrain profiles plus the storm-grade
dust sweep, writes one CSV per table to the current directory, and prints a
short summary of each. Equivalent to `marswpt sweep --preset <name>` for
each name.
"""

from pathlib import Path

from marswpt.cli import rows_to_csv
from marswpt.sweep import builtin_presets, run_sweep

TABLES = ("fig3a", "fig3b", "fig5a")


def main() -> None:
    presets = builtin_presets()
    for name in TABLES:
        rows = run_sweep(presets[name], n_workers=4)
        out_path = Path(f"{name}.csv")
        out_path.write_text(rows_to_csv(rows), encoding="utf-8")

        by_harvester: dict = {}
        for row in rows:
            by_harvester.setdefault(row.harvester, []).append(row)
        print(f"{name}: {len(rows)} rows -> {out_path.name}")
        for harvester, group in by_harvester.items():
            best = max(group, key=lambda r: r.stats.median_uw)
            print(
                f"  harvester {harvester}: best median {best.stats.median_uw:9.2f} uW "
                f"at {best.axis}={best.axis_value:g}"
                + (
                    f", {best.secondary}={best.secondary_value:g}"
                    if best.secondary is not None
                    else ""
                )
            )
        print()


if __name__ == "__main__":
    main()
