"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    final = namespace["final"]
    assert final.t == 0.25 and final.u.shape == (4, 64)
    assert capsys.readouterr().out == f"{final.t} {final.c1.max()}\n"
