"""A command line through cli.main and through the full parser, side by side.

main parses a command line that starts with a subcommand with that
subcommand's parser alone; build_parser().parse_args is the reference it
must match.  both(argv) gives, for each, the exit code main would return,
stdout, stderr and the parsed Namespace as a dict (None when parsing
exited).  main runs with every handler replaced by one that records its
Namespace, so nothing but parsing runs.

tests/test_harness.py imports this module.  Run as a script, it checks
the command lines given as a JSON list on stdin and prints, as JSON, the
ones whose two results differ, with both results:

    PYTHONPATH=src python3 tests/parse_both_ways.py < command_lines.json
"""

import contextlib
import io
import json
import sys

from parcelfuzz import cli

# Words that are special to argparse wherever they stand.
_SPECIAL = ["--", "-h", "--help", "--he", "-hx", "-", "--bogus", "-x", "extra", "replay", ""]
_VALUES = ["x", "1", "-1", "r.json", "semi-valid", "text", "json", "a b", "--json"]


def words(name: str) -> list[str]:
    """What a command line for subcommand name may hold after the name:
    its flags, whole, abbreviated and with =value, values, and _SPECIAL."""
    found = list(_SPECIAL) + _VALUES
    for flag, _keywords in cli.COMMANDS[name].arguments:
        found.append(flag)
        found.extend(flag[:end] for end in range(3, len(flag)))
        found.extend("%s=%s" % (flag, value) for value in ("x", "1", "json", ""))
    return found


def _run(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, parsed = parse(argv)
    return code, out.getvalue(), err.getvalue(), parsed


def both(argv: list[str]) -> tuple[tuple, tuple]:
    """(main's result, the full parser's result) for argv."""

    def full(argv):
        try:
            return 0, vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return (1 if exc.code else 0), None

    def fast(argv):
        seen = []
        saved = dict(cli.COMMANDS)
        for name, command in saved.items():
            cli.COMMANDS[name] = command._replace(handler=lambda args: seen.append(vars(args)) or 0)
        try:
            return cli.main(argv), (seen[0] if seen else None)
        finally:
            cli.COMMANDS.update(saved)

    return _run(fast, argv), _run(full, argv)


if __name__ == "__main__":
    differ = []
    for argv in json.load(sys.stdin):
        fast, full = both(argv)
        if fast != full:
            differ.append([argv, fast, full])
    print(json.dumps(differ))
