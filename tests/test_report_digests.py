"""Every CLI output on the fixtures matches the checked-in digest manifest.

``tools/report_digests.txt`` is the output of ``python tools/report_digests.py``.
A change that moves a report byte regenerates it with that command and says so.
"""
import importlib.util
import itertools
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "report_digests.py")


def test_manifest_matches_the_checked_in_file(tmp_path):
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(ROOT, "tools", "report_digests.txt")) as handle:
        want = handle.read().splitlines()
    got = list(tool.manifest(str(tmp_path)))
    diff = manifest_diff(got, want)
    assert not diff, "manifest differs:\n" + "\n".join(diff)


def manifest_diff(got, want):
    """One entry per differing line, both sides in full: a digest line ends with
    its ``<run>/<file>`` and an exit line with its ``<run>``."""
    pairs = itertools.zip_longest(got, want, fillvalue="(no line)")
    return [f"line {number}: got {got_line!r}, want {want_line!r}"
            for number, (got_line, want_line) in enumerate(pairs, start=1)
            if got_line != want_line]


def test_manifest_diff_names_every_differing_line():
    want = ["a  simulate/x/report.json", "exit 0  simulate/x", "b  stability/x/report.json"]
    got = ["c  simulate/x/report.json", "exit 0  simulate/x", "b  stability/x/report.json",
           "exit 1  extra"]
    assert manifest_diff(got, want) == [
        "line 1: got 'c  simulate/x/report.json', want 'a  simulate/x/report.json'",
        "line 4: got 'exit 1  extra', want '(no line)'",
    ]
    assert manifest_diff(want, want) == []
