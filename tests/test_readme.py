"""The README's quickstarts run as written."""

import re
import shlex
from pathlib import Path

from mlaan import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_python_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    error = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= error <= 1.0


def test_cli_quickstart_parses_and_reads_only_what_it_writes():
    """Every `mlaan …` line of the README's sh blocks parses with the CLI's
    own parser, and every config or checkpoint it reads is a repo file or
    is written by an earlier line of its block. Nothing is trained."""
    parser = cli._build_parser()
    commands = 0
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        written = set()
        for line in block.splitlines():
            words = shlex.split(line)
            if ">" in words:
                written.add(words[words.index(">") + 1])
            if words[:1] != ["mlaan"]:
                continue
            args = parser.parse_args(words[1:])
            commands += 1
            for key in ("config", "resume", "checkpoint", "checkpoint_a", "checkpoint_b"):
                path = getattr(args, key, None)
                shipped = key == "config" and path and (ROOT / path).is_file()
                assert path is None or path in written or shipped, line
            if args.command == "train":
                written.add(f"{args.out}/checkpoint.mlnn")
    assert commands >= 6
