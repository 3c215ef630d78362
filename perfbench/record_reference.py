"""Record reference.json: the verdicts fixture_verdicts checks against.

    python3 perfbench/record_reference.py

Runs the CLI's lyapunov command (certificate plus draining-time verdict) on
each fixture with the benchmark's flags and stores status, tau and
certificate status.
Record again only when the flags change or a change of behaviour is
intended, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

run.import_library()

import fluidnet.cli  # noqa: E402
import fluidnet.specfile  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    fixtures = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR)
    try:
        for name, spec in workloads._fixture_networks(workloads.SIZES["full"]).items():
            path = os.path.join(workdir, f"{name}.yaml")
            with open(path, "w") as handle:
                handle.write(fluidnet.specfile.network_to_yaml(spec))
            out = os.path.join(workdir, name)
            fluidnet.cli.main(["--command", "lyapunov", "--input", path, "--out", out,
                               *workloads.CLI_FLAGS])
            with open(os.path.join(out, "report.json")) as handle:
                report = json.load(handle)
            fixtures[name] = {
                "status": report["stability"]["status"],
                "tau": report["stability"]["tau"],
                "certificate": report["certificate"]["status"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"cli_flags": list(workloads.CLI_FLAGS), "fixtures": fixtures}
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
