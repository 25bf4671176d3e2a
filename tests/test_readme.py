"""The README's library quick start, run verbatim."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    fidelity = float(capsys.readouterr().out.splitlines()[0])
    assert fidelity > 0.999
    assert {0, 1} <= set(namespace["report"].kept_orders)
