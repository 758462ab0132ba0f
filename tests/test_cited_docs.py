"""Every Markdown file a source file names exists in the repository.

A docstring or ``--help`` text that sends the reader to a document is
only as good as the document; paths are resolved from the repo root,
the way the source files write them (``docs/STORAGE.md``).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")


def test_every_cited_markdown_file_exists():
    cited, missing = set(), []
    for source in sorted((ROOT / "src").rglob("*.py")):
        for lineno, line in enumerate(source.read_text().splitlines(), 1):
            for name in MD_PATH.findall(line):
                cited.add(name)
                if not (ROOT / name).is_file():
                    where = source.relative_to(ROOT)
                    missing.append(f"{where}:{lineno} names {name}")
    assert not missing, "\n".join(missing)
    # The pattern still finds the citations the sources do make.
    assert "docs/STORAGE.md" in cited
