"""Pinned help, usage and argument-error output of the CLI.

Each SHA-256 below is of what ``main(argv)`` prints, stdout then a NUL byte
then stderr, with ``COLUMNS=80``; argparse wraps its text to that width. The
digests were recorded with Python 3.11's argparse, from the parser that holds
every subcommand.
"""

import hashlib

import pytest

from zarank.cli import COMMANDS, _build_parser, main

ARGVS = {
    "help": ["--help"],
    "version": ["--version"],
    "empty": [],
    **{f"help_{name}": [name, "--help"] for name in [*COMMANDS, "sweep"]},
    "unknown_command": ["frobnicate"],
    "flag_before_command": ["--force", "sc-verify"],
    "missing_required_flag": ["sc-verify"],
    "missing_spec": ["sweep"],
    "bad_choice": ["sc-analyze", "--layered", "g.json", "--theorem", "9"],
    "non_integer_k": ["verify", "--family", "f.json", "--k", "two"],
    "missing_value": ["sweep", "--spec"],
    "unrecognized_after_command": ["sc-verify", "--layered", "g.json", "--bogus"],
    "version_after_command": ["bounds", "--family", "f.json", "--version"],
    "help_after_flags": ["construct", "--n", "5", "-h"],
}

PINNED = {
    "bad_choice": (2, "41b24a99474c4dda83d39b4449ad7848bd832e9900b549510815b0e88456a72d"),
    "empty": (2, "9adab08cc0de9cc2ff9faea5c3b327e80b7b817b844288ff9cea64183cf6af45"),
    "flag_before_command": (2, "45a43d47cf6a3e13c3b8728d6f32582cadd583de8349ed963bff20667de9cba1"),
    "help": (0, "a689d5fcf192edf3240a8161afb70d816c6552fb97481c56a906139662736e91"),
    "help_after_flags": (0, "422ffce2c8b482a3da220929dadbb276d79d3b645fa978c09c67fc267465ca27"),
    "help_attack": (0, "9f3d485bc3baae97a0d0c8f7b11ec9c085f1d48ba446f3d329be98773648ccbf"),
    "help_bounds": (0, "3479bf232119ad8543a50b0652065d57332c710f3240f4336afd6167410756f4"),
    "help_construct": (0, "422ffce2c8b482a3da220929dadbb276d79d3b645fa978c09c67fc267465ca27"),
    "help_sc-analyze": (0, "9396cb2393ef6918508d133c3c634477c3ce2d2332fcebde2f88efe71e99072c"),
    "help_sc-verify": (0, "b8e0611dc769cb6ece6a7c8850f673c7397a3570d7f515ebe205497db30be892"),
    "help_sweep": (0, "96cf34482b05462cba7841ec92eb6284afd4bdee3da60fdeb6fc70e224b9a798"),
    "help_verify": (0, "c74281d0d8c9949c5082c0a990e39aae1d3240f4bd0da25da07556ac594b973e"),
    "missing_required_flag": (2, "45a43d47cf6a3e13c3b8728d6f32582cadd583de8349ed963bff20667de9cba1"),
    "missing_spec": (2, "defc0b0d1b2f6f01aec9ce004d9418afc29bab5e12aec84393191f81e95ea841"),
    "missing_value": (2, "1c4dba6884fba8ff59a7e98bf170f12d931832a0502147a7f5685e3084a510ce"),
    "non_integer_k": (2, "fdb7162ddcc1be1b5612eb22bad0c81cb90e3ac04514030c1dd2f5658e9e34dc"),
    "unknown_command": (2, "27a62f0865a7fed3ca344ecd9aabea8cfdfbbce27ffd628cc79de0de73f2f6a7"),
    "unrecognized_after_command": (2, "33bc7194fd40299cfafcc684747a7924743eb6010e4be4143266c0baffce48ea"),
    "version": (0, "3bfd7c2d1ff17c481f0358c9611f4ceead60210079d30ad78760fa2d43a784d7"),
    "version_after_command": (2, "11ec1229b84850775c344007fce5ef984b0eeb919def698526ed258e38998b59"),
}


def run(entry, argv, capsys, monkeypatch) -> tuple[int, str]:
    """``entry(argv)``'s exit code and the SHA-256 of what it printed."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        entry(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, hashlib.sha256(f"{out}\0{err}".encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_output_pinned(name, capsys, monkeypatch):
    assert run(main, ARGVS[name], capsys, monkeypatch) == PINNED[name]


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_output_matches_full_parser(name, capsys, monkeypatch):
    # Holds under any argparse version, where the digests above need 3.11's.
    full = run(lambda argv: _build_parser().parse_args(argv), ARGVS[name], capsys, monkeypatch)
    assert run(main, ARGVS[name], capsys, monkeypatch) == full


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_output_pinned_from_a_parser_built_wider(name, capsys, monkeypatch):
    # A parser is built once per process, and its text wraps to the COLUMNS
    # of the call that prints it, not of the call that built it.
    _build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(list(ARGVS[name]))
    capsys.readouterr()
    assert run(main, ARGVS[name], capsys, monkeypatch) == PINNED[name]
