"""The README's library example runs as written against the package, and
its check counts are the registry's."""

import re
from pathlib import Path

from qslbound.verify import CHECKS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert float(capsys.readouterr().out) <= 1e-9


def test_check_counts_follow_the_registry():
    text = README.read_text(encoding="utf-8")
    for pattern in (r"(\d+) in all", r"checks \((\d+)\)"):
        counts = [int(n) for n in re.findall(pattern, text)]
        assert counts and all(n == len(CHECKS) for n in counts), (pattern, counts, len(CHECKS))
