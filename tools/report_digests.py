"""Digest manifest of every CLI command's outputs on the built-in fixtures.

    python tools/report_digests.py > after.txt
    python tools/report_digests.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

``tools/report_digests.txt`` holds the manifest of the current reports, and
``tests/test_report_digests.py`` checks it; a change that moves a report byte
regenerates it with ``python tools/report_digests.py > tools/report_digests.txt``.

Writes the fixtures as YAML description files into a temporary directory and
runs the CLI on them in this process, with the default flags and with the
short benchmark flags:

- simulate, stability, lyapunov and gfn-check on the five stable networks and
  lu_kumar (no gfn-check on lu_kumar: its axiom report runs for minutes);
- fluidlimit on the fixtures with a ``queueing`` section;
- skorokhod on the fixtures with a ``skorokhod`` section.

Each output file gives one line ``<sha256>  <run>/<file>`` and each run one
line ``exit <status>  <run>`` (or the exception a crashed run raised), in a
fixed order, so two manifests are byte-identical exactly when every report,
CSV and exit status is.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAG_SETS = {
    "default": (),
    "short": ("--step", "0.02", "--horizon", "10", "--samples", "0", "--seed", "42"),
}
NETWORK_COMMANDS = ("simulate", "stability", "lyapunov", "gfn-check")


def fixture_files(fixtures, specfile) -> dict[str, tuple[str, tuple[str, ...]]]:
    """name -> (YAML text, commands to run on it)."""
    import yaml

    files = {}
    networks = {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}
    for name, spec in networks.items():
        commands = tuple(c for c in NETWORK_COMMANDS
                         if not (name == "lu_kumar" and c == "gfn-check"))
        files[name] = (specfile.network_to_yaml(spec), commands)
    for name in ("queueing_single_deterministic", "queueing_two_class_priority"):
        qspec = getattr(fixtures, name)()
        doc = specfile.network_to_dict(qspec.network)
        doc["queueing"] = {"interarrival": list(qspec.interarrival),
                           "service": list(qspec.service)}
        files[name] = (yaml.safe_dump(doc, sort_keys=False), ("fluidlimit",))
    for name in ("lsp_one_dimensional", "lsp_decoupled", "lsp_chattering"):
        inst = getattr(fixtures, name)()
        doc = {"skorokhod": {"theta": inst.theta.tolist(),
                             "reflection": inst.reflection.tolist(),
                             "z0": inst.z0.tolist()}}
        files[name] = (yaml.safe_dump(doc, sort_keys=False), ("skorokhod",))
    return files


def manifest(workdir: str):
    """Yield the manifest lines, one run at a time."""
    from fluidnet import cli, fixtures, specfile

    for name, (text, commands) in fixture_files(fixtures, specfile).items():
        path = os.path.join(workdir, f"{name}.yaml")
        with open(path, "w") as handle:
            handle.write(text)
        for command in commands:
            for flag_name, flags in FLAG_SETS.items():
                run = f"{command}/{name}/{flag_name}"
                out_dir = os.path.join(workdir, run)
                argv = ["--command", command, "--input", path, "--out", out_dir, *flags]
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        status = cli.main(argv)
                except Exception as exc:  # a crash is an outcome to compare, not a stop
                    status = f"raised {type(exc).__name__}: {exc}"
                for entry in sorted(os.listdir(out_dir) if os.path.isdir(out_dir) else ()):
                    with open(os.path.join(out_dir, entry), "rb") as handle:
                        digest = hashlib.sha256(handle.read()).hexdigest()
                    yield f"{digest}  {run}/{entry}"
                yield f"exit {status}  {run}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the fluidnet package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(prefix="fluidnet-digests-") as workdir:
        for line in manifest(workdir):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
