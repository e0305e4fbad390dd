"""Record the sha256 of each cli-fk subcommand's stdout.

    python3 perfbench/record_golden.py

Runs the six cli-fk subcommands on fk:24:1:well@c for every well centre c
and writes perfbench/golden_cli_fk.json.  Exact-mode CLI output must stay
byte-identical, so re-record only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json

import workloads
from worker import import_wkam


def main() -> None:
    wkam = import_wkam()
    digests = {}
    for centre in range(workloads.FK_POINTS):
        for sub in workloads.CLI_SUBCOMMANDS:
            argv = workloads.cli_argv(sub, centre)
            text = workloads.run_cli(wkam.cli.main, argv)
            digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
            print(" ".join(argv), digests[" ".join(argv)], flush=True)
    workloads.GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
