"""README performance claims match the committed BENCH artifacts.

Every ``BENCH_*.json`` that README.md names must exist at the repository
root, and every ``BENCH_*.json`` at the root must have a row in README's
performance table.  A deleted bench then cannot leave its claim behind,
and a new one cannot go unreported.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_every_bench_named_in_readme_exists():
    named = set(re.findall(r"BENCH_\w+\.json", README))
    assert named
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []


def test_every_bench_file_has_a_readme_table_row():
    rows = set(re.findall(r"^\| `(BENCH_\w+\.json)` \|", README, re.MULTILINE))
    committed = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert committed
    assert sorted(committed - rows) == []
