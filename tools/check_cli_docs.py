#!/usr/bin/env python3
"""Docs-drift gate for the motune CLI.

Runs `motune --help` to discover the subcommands, then `motune CMD --help`
for each, and asserts that every subcommand and every `--flag` the binary
prints is mentioned in docs/cli.md. Registered as the `check_cli_docs` ctest and
run by the CI `docs` job, so a new flag cannot land without its
documentation.

Usage: check_cli_docs.py /path/to/motune [docs/cli.md]
"""

import re
import subprocess
import sys


def run_help(motune, *args):
    result = subprocess.run(
        [motune, *args], capture_output=True, text=True, timeout=60
    )
    if result.returncode != 0:
        sys.exit(f"`{motune} {' '.join(args)}` exited {result.returncode}:\n"
                 f"{result.stderr}")
    return result.stdout


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    motune = sys.argv[1]
    doc_path = sys.argv[2] if len(sys.argv) > 2 else "docs/cli.md"
    with open(doc_path) as handle:
        doc = handle.read()

    global_help = run_help(motune, "--help")
    # Command lines look like "  tune      run the static optimizer ...".
    commands = re.findall(r"^  (\w+)\s{2,}\S", global_help, re.MULTILINE)
    if not commands:
        sys.exit("could not parse any commands out of `motune --help`")

    missing = []
    for command in commands:
        if f"`motune {command}`" not in doc and f"motune {command}" not in doc:
            missing.append(f"command `{command}` (from `motune --help`)")
        help_text = run_help(motune, command, "--help")
        for flag in sorted(set(re.findall(r"--[\w-]+", help_text))):
            if flag == "--help":
                continue
            if flag not in doc:
                missing.append(f"flag `{flag}` (from `motune {command} --help`)")

    if missing:
        print(f"{doc_path} is missing {len(missing)} item(s) the binary "
              "documents in --help:", file=sys.stderr)
        for item in missing:
            print(f"  {item}", file=sys.stderr)
        return 1
    print(f"{doc_path} covers all {len(commands)} commands and their flags")
    return 0


if __name__ == "__main__":
    sys.exit(main())
