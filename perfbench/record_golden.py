"""Write golden.json: the outputs the benchmark's checks compare against.

Run from the root of the repository, only when a change to the numbers is
intended and declared::

    python3 perfbench/record_golden.py

It records, at seed 12345 and full size, the sha256 of each of the eight
preset CSVs from ``marswpt sweep --preset NAME`` and the Monte Carlo block of
each harvester in ``marswpt link --json`` for the ``link_1e6`` scenario.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from marswpt import cli, sweep  # noqa: E402
from workloads import GOLDEN_PATH, GOLDEN_SEED, LINK_TRIALS, link_argv  # noqa: E402


def main() -> int:
    golden = {"seed": GOLDEN_SEED, "presets_sha256": {}, "link_1e6": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for table in sorted(sweep.builtin_presets()):
            path = Path(tmp) / f"{table}.csv"
            if cli.main(["sweep", "--preset", table, "--seed", str(GOLDEN_SEED), "-o", str(path)]):
                return 1
            golden["presets_sha256"][table] = hashlib.sha256(path.read_bytes()).hexdigest()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if cli.main(link_argv(GOLDEN_SEED, LINK_TRIALS, 1)):
            return 1
    report = json.loads(buffer.getvalue())["harvesters"]
    golden["link_1e6"] = {name: entry["monte_carlo"] for name, entry in report.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
