"""Write golden/<workload>.json: the sha256 of every reference-seed report.

Usage, from the root of a checkout:  python3 perfbench/make_golden.py

Run it only when a change to the reports is intended and explained; the
traced benchmark run counts reports that no longer match as
``cli.reports_changed``.
"""

import json

from corpus import REFERENCE_SEED, WORKLOADS, generate, write_corpus
from run import GOLDEN, WORK, import_focklab, report_hashes


def main():
    cli = import_focklab().cli
    GOLDEN.mkdir(exist_ok=True)
    for workload in sorted(WORKLOADS):
        cases = generate(workload, REFERENCE_SEED)
        paths = write_corpus(cases, WORK / f"{workload}-reference")
        golden = {"seed": REFERENCE_SEED,
                  "reports": report_hashes(cli, cases, paths)}
        path = GOLDEN / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
