"""The README's library quick start runs as written, so a renamed or removed
public name cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["bound"].log_qem >= namespace["exact"].log_qem - 1e-12
    assert namespace["tail"].log_prob_bound <= 0.0
