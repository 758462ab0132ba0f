"""Every source line fits the 88 columns ``pyproject.toml`` gives ruff.

CI's ruff selects only the ``E4,E7,E9,F`` rules, so ``line-length``
alone enforces nothing; this test does, for every file under ``src/``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 88


def test_every_source_line_fits_the_configured_length():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(rf"^line-length = {LIMIT}$", pyproject, re.MULTILINE)
    long_lines = [
        f"{source.relative_to(ROOT)}:{lineno} has {len(line)} characters"
        for source in sorted((ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(source.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long_lines, "\n".join(long_lines)
