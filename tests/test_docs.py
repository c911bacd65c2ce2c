import doctest
import shlex
from pathlib import Path

from opmono.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# CLI examples whose comment describes the output instead of being it
DESCRIBED = {"enumerate", "series", "bfile", "verify"}


def test_readme_examples_run():
    # the library quick start is a doctest, so its printed values cannot drift
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_cli_examples_print_their_comment(capsys):
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    ran = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] in DESCRIBED:
            continue
        assert main(argv) == 0, line
        assert capsys.readouterr().out == comment.strip() + "\n", line
        ran.append(argv[0])
    assert ran == ["count", "sequence", "growth", "growth", "paths", "trees"]
