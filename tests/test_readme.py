import argparse
import re
from pathlib import Path

from bilevel_reweight import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_cli_section_names_the_parsers_commands_and_presets():
    text = README.read_text()
    section = text[text.index("Reproduce an experiment"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    presets = re.findall(r"^bilevel-reweight experiment (\S+)", block, re.M)
    assert presets == sorted(cli.EXPERIMENTS)
    (subcommands,) = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    named = set(re.findall(r"bilevel-reweight ([a-z][\w-]*)", text))
    assert "experiment" in named
    assert named <= set(subcommands)
