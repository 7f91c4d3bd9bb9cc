"""Every repo path the CI workflow and the how-to docs name must exist.

Deleting a script or benchmark tends to leave a CI step, a README
command or the verify recipe pointing at it; this guard fails on the
first such leftover.  Names with a ``*`` must match at least one file.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = (".github/workflows/ci.yml", "README.md",
        ".claude/skills/verify/SKILL.md")
PATH_RE = re.compile(r"(?<![\w./-])(?:benchmarks|scripts|tools)/[\w.*/-]*")


def named_paths(doc):
    text = (REPO / doc).read_text()
    return sorted({match.rstrip(".") for match in PATH_RE.findall(text)})


@pytest.mark.parametrize("doc", [d for d in DOCS if (REPO / d).exists()])
def test_named_paths_exist(doc):
    missing = [name for name in named_paths(doc)
               if not (any(REPO.glob(name)) if "*" in name
                       else (REPO / name).exists())]
    assert not missing, f"{doc} names paths that do not exist: {missing}"
