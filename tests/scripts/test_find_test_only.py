"""Smoke test of ``scripts/find_test_only.py``, the test-only definition scan."""

import subprocess
import sys

from scripts.find_test_only import ROOT, code_names, scan


def test_scan_lists_a_class_only_tests_build():
    listed = {(path.name, name) for path, _, _, name in scan()}
    # MemoryAdmission is re-exported by repro.serve and built by tests only.
    assert ("admission.py", "MemoryAdmission") in listed
    # ServeConfig.gateway_limits is called inside its own module.
    assert ("config.py", "ServeConfig.gateway_limits") not in listed


def test_comments_strings_and_definitions_are_no_use(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        'def helper():\n    """helper"""\n    # helper\n    return "helper"\n'
    )
    assert code_names(path)["helper"] == 0


def test_script_prints_and_exits_zero():
    script = ROOT / "scripts" / "find_test_only.py"
    run = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, check=False
    )
    assert run.returncode == 0
    assert "class MemoryAdmission" in run.stdout
