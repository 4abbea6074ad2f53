"""The CI workflow keeps every behavioural check in the test suite: its steps
run the console script, the suites and the two checks that cannot live in
pytest, and re-implement no test as an inline Python script."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# Page faults depend on how the process was launched, and blocking scipy
# needs a fresh interpreter, so these two steps run their own Python.
INLINE_PYTHON_STEPS = {
    "Monte-Carlo rows fault in no fresh pages",
    "Oracle checks with scipy blocked (the runtime needs numpy only)",
}

_STEP = re.compile(r"^\s*- (?:name|uses): (.*)$")
_INLINE = re.compile(r"\bpython3?(?:\s+-W\s+\S+)*\s+-c\b")


def _steps_running_inline_python(text):
    """The names of the workflow steps with a `python -c` command line (the
    action's name for a step with none)."""
    found, step = set(), None
    for line in text.splitlines():
        if match := _STEP.match(line):
            step = match.group(1).strip()
        elif step is not None and _INLINE.search(line):
            found.add(step)
    return found


def test_only_the_two_process_checks_run_inline_python():
    assert _steps_running_inline_python(WORKFLOW.read_text(encoding="utf-8")) == INLINE_PYTHON_STEPS
