"""The option-table parser against the argparse grammar it replaced.

`oracles.build_parser` is the argparse tree the CLI was built on.  Command
lines drawn from the grammar, valid or mutated, must give the same
attribute values under both, or make both exit with the same status: 2 with
a `usage:` line on stderr and nothing on stdout, 0 with help on stdout.
Only behaviour that argparse shares on Python 3.10 to 3.12 is drawn: no
`--opt=--`, and no one-dash option glued to a value other than its own
letter.
"""

import argparse
import contextlib
import io
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_parser

from omegastar.cli import COMMANDS, GLOBAL_OPTIONS, REQUIRED, Option, _Level, _parse_args, main

# Values argparse reads in ways worth pinning: empty, a lone comma, negative
# numbers (taken as values), dash words (taken as options), spaces,
# underscores, non-finite floats.
ODD_VALUES = ("", ",", "-5", "-0.5", "-.5", "-", "-x", "-1e5", "--k", "-5 ", " 7", "1_000", "abc", "inf", "nan", "1,-2")


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parse(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return "help", out.getvalue().startswith("usage: ")
        return "exit", exc.code, out.getvalue(), err.getvalue().startswith("usage: ")
    return "parsed", vars(ns), out.getvalue(), err.getvalue()


def _values(option: Option):
    if isinstance(option.convert, tuple):
        valid = st.sampled_from(option.convert)
    elif option.convert is int:
        valid = st.integers(-(10**6), 10**6).map(str)
    elif option.convert is float:
        valid = st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
    else:
        valid = st.lists(st.integers(-9, 10**4), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
    # one draw in four is odd, so that most command lines stay valid
    return st.one_of(valid, valid, valid, st.sampled_from(ODD_VALUES))


def _spellings(name: str, names: list[str]) -> list[str]:
    """The name and each longer unique prefix of it among `names`."""
    return [name[:k] for k in range(3, len(name) + 1) if sum(n.startswith(name[:k]) for n in names) == 1]


@st.composite
def _groups(draw, options: dict[str, Option], required: bool):
    """Token groups, one per option given: `--name value` or `--name=value`,
    names abbreviated or not, repeats allowed, required options included
    when `required`."""
    names = ["-h", "--help", *options]
    chosen = draw(st.lists(st.sampled_from(list(options)), max_size=4)) if options else []
    if required:
        chosen += [n for n, o in options.items() if o.default is REQUIRED]
    chosen = draw(st.permutations(chosen))
    groups = []
    for name in chosen:
        spelled = draw(st.sampled_from(_spellings(name, names)))
        value = draw(_values(options[name]))
        groups.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
    return groups


MUTATIONS = (
    "drop_value",
    "drop_required",
    "ambiguous",
    "unknown_flag",
    "unknown_command",
    "no_command",
    "global_after",
    "separator",
    "help",
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2, unique=True)) if draw(st.booleans()) else []
    front = draw(_groups(GLOBAL_OPTIONS, required=False))
    back = draw(_groups(COMMANDS[command].options, required="drop_required" not in mutations))
    if "drop_value" in mutations and any(len(g) == 2 for g in front + back):
        group = draw(st.sampled_from([g for g in front + back if len(g) == 2]))
        del group[1]
    if "ambiguous" in mutations:
        # "--" is the one prefix that names several options at every level
        side = draw(st.sampled_from([front, back]))
        side.insert(draw(st.integers(0, len(side))), [f"--={draw(st.sampled_from(('1', 'x', '')))}"])
    if "unknown_flag" in mutations:
        side = draw(st.sampled_from([front, back]))
        flag = draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["--bogus=1"], ["-z"], ["---x", "1"]]))
        side.insert(draw(st.integers(0, len(side))), flag)
    if "unknown_command" in mutations:
        command = draw(st.sampled_from(["frobnicate", command[:3], command.upper(), ""]))
    if "global_after" in mutations:
        back += draw(_groups(GLOBAL_OPTIONS, required=False).filter(bool))
    argv = [token for group in front for token in group]
    if "no_command" not in mutations:
        argv.append(command)
    argv += [token for group in back for token in group]
    if "separator" in mutations:
        argv.insert(draw(st.integers(0, len(argv))), "--")
    if "help" in mutations:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help", "--he", "-hh"])))
    return argv


def _oracle(argv):
    return build_parser().parse_args(argv)


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parser_matches_argparse(argv):
    want = _outcome(_oracle, argv)
    assert _outcome(_parse_args, argv) == want
    if want[0] == "exit":
        assert want[1:] == (2, "", True)


@pytest.mark.parametrize(
    "argv",
    [
        ["--", "moments", "--x", "5"],
        ["moments", "--x", "5", "--"],
        ["moments", "--x", "--", "5"],
        ["--seed", "--", "moments", "--x", "5"],
        ["report", "--s", "5"],
        ["--se=5", "moments", "--x", "1", "--k=-2"],
        ["moments", "--x", "-.5"],
        ["moments", "--x", "-5 "],
        ["moments", "--x", "--k y"],
        ["moments", "--x", "1", "--k", "2", "--k", "3"],
        ["-hh"],
        ["-h=x"],
        ["--help="],
        ["--bogus", "-h"],
        ["frobnicate", "-h"],
        ["mom", "--x", "5"],
        ["--=x", "moments", "--x", "5"],
        ["moments", "--x", "5", "--seed", "3"],
        [],
    ],
)
def test_parser_matches_argparse_at_edges(argv):
    assert _outcome(_parse_args, argv) == _outcome(_oracle, argv)


# A grammar whose names share prefixes, so that an abbreviation can be
# ambiguous beyond "--": --m names three options, --max- two.
SHARED = {
    "--mode": Option(("a", "b"), "a"),
    "--max-n": Option(int),
    "--max-k": Option(int, 1),
    "--x": Option(float, 0.5),
}


def _shared_oracle(argv):
    parser = argparse.ArgumentParser(prog="shared")
    for name, option in SHARED.items():
        choices = option.convert if isinstance(option.convert, tuple) else None
        kind = None if choices else option.convert
        if option.default is REQUIRED:
            parser.add_argument(name, type=kind, choices=choices, required=True)
        else:
            parser.add_argument(name, type=kind, choices=choices, default=option.default)
    return parser.parse_args(argv)


def _shared_level(argv):
    level, ns = _Level("shared", "", SHARED), SimpleNamespace()
    extras = level.parse(argv, ns)
    if extras:
        level.error(f"unrecognized arguments: {' '.join(extras)}")
    return ns


@st.composite
def _shared_lines(draw):
    argv = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(list(SHARED)))
        spelled = name[: draw(st.integers(3, len(name)))]
        value = draw(_values(SHARED[name]))
        argv += [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(_shared_lines())
def test_prefixes_match_argparse_where_names_share_them(argv):
    assert _outcome(_shared_level, argv) == _outcome(_shared_oracle, argv)


def test_help_lists_every_name(capsys):
    for argv, names in [(["--help"], [*COMMANDS, *GLOBAL_OPTIONS])] + [
        ([name, "-h"], list(command.options)) for name, command in COMMANDS.items()
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: omegastar")
        assert all(name in out for name in names), argv


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--seed", "abc", "omega-star", "--n", "1"], ["--seed", "'abc'"]),
        (["--format", "xml", "omega-star", "--n", "1"], ["--format", "'xml'"]),
        (["moments", "--x"], ["--x"]),
        (["omega-star"], ["--n"]),
        (["frobnicate"], ["'frobnicate'"]),
        (["moments", "--x", "5", "--bogus"], ["--bogus"]),
        (["omega-star", "--n", "1", "--seed", "3"], ["--seed", "3"]),
        (["--=1", "omega-star", "--n", "1"], ["--=1"]),
        (["report", "--mode", "gr"], ["--mode", "'gr'"]),
    ],
)
def test_usage_error_names_what_was_refused(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    usage, message = err.splitlines()[0], err.splitlines()[-1]
    assert usage.startswith("usage: omegastar")
    assert "error: " in message
    assert all(text in message for text in named), message


def test_dashes_after_equals_are_a_value(capsys):
    # argparse before 3.13 turned --x=-- into an empty list and crashed the
    # handler; the table parser reads the value "--", which the list refuses
    code = main(["moments", "--x=--"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("omegastar: error: --x must be a nonempty comma-separated list")
