"""The README's library example and command lines run as written."""

import re
from pathlib import Path

from regenfv import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_use_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    final = namespace["final"]
    assert final.t == 0.25 and final.u.shape == (4, 64)
    assert capsys.readouterr().out == f"{final.t} {final.c1.max()}\n"


def test_command_lines_run(tmp_path, monkeypatch):
    # the `regenfv` command lines of the fenced blocks, bracketed optional
    # flags dropped, run in order from a folder that sees the shipped configs
    lines, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("regenfv "):
            lines.append(re.sub(r"\[[^]]*\]", "", line).split()[1:])
    assert [argv[0] for argv in lines] == ["run", "sweep", "weakcheck", "oracle"]
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv) == 0, argv
