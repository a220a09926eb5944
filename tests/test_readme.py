"""The README's Python quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    error = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= error <= 1.0
