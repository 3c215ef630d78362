"""Every CLI output on the fixtures matches the checked-in digest manifest.

``tools/report_digests.txt`` is the output of ``python tools/report_digests.py``.
A change that moves a report byte regenerates it with that command and says so.
"""
import importlib.util
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
    for number, (got_line, want_line) in enumerate(zip(got, want), start=1):
        assert got_line == want_line, f"manifest line {number}"
    assert len(got) == len(want)
