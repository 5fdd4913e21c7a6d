"""The CI workflow runs each tests/ci_checks.py step, and no inline Python."""

import re
from pathlib import Path

import ci_checks


def test_workflow_runs_every_step_of_ci_checks():
    text = (Path(__file__).parent.parent / ".github/workflows/tests.yml").read_text()
    assert "python3 - <<" not in text
    runs = re.findall(r"python3 tests/ci_checks\.py (\S+) ?(\S*)$", text, re.MULTILINE)
    expected = [(step, "") for step in ci_checks.STEPS if step != "enumeration"]
    expected += [("enumeration", ",".join(map(str, s))) for s in ci_checks.ENUMERATIONS]
    assert sorted(runs) == sorted(expected)
