"""The CLI parser built for one subcommand says exactly what the full parser says."""

import contextlib
import io

import pytest

from qkflag.cli import COMMANDS, build_parser, run


def _parse(parser, argv):
    """(exit code or None, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


ARGVS = [
    ["--help"],
    [],
    ["bogus"],
    *([c, "--help"] for c in COMMANDS),
    *([c] for c in COMMANDS),
    *([c, "--bogus"] for c in COMMANDS),
    ["product", "--n", "3", "--u", "x"],
    ["verify", "--n", "3", "--format", "csv"],
    ["flags", "--balanced", "--stabilized"],
    ["product", "--n", "3", "--u", "1,2", "--v", "2,1", "extra"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_one_subcommand_parser_matches_the_full_parser(argv):
    chosen = next((a for a in argv if not a.startswith("-")), None)
    assert _parse(build_parser(chosen), argv) == _parse(build_parser(), argv)


@pytest.mark.parametrize("command", COMMANDS)
def test_only_the_chosen_subcommand_gets_its_arguments(command):
    parser = build_parser(command)
    sub = next(a for a in parser._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(COMMANDS)
    for name, p in sub.choices.items():
        assert (len(p._actions) > 1) == (name == command), name


def test_run_reads_a_tuple_argv(capsys):
    assert run(("correlator", "--kind", "pn", "--m", "2", "--i", "1,2,3", "--d", "1")) == 0
    assert capsys.readouterr().out == "1\n"
