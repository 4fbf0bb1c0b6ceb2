"""Run one ``debiaskit`` CLI command and record the row blocks of its passes.

    python scripts/block_recorder.py RECORD debias --config d4.json ...

Wraps ``debiaskit.classifier.row_blocks`` and then calls ``cli.main`` with
the remaining arguments, so the command prints and writes what
``python -m debiaskit.cli`` would. Each distinct partition that a call of
``row_blocks`` returns is appended to the file RECORD as one line,
``n=size+size+...`` (rows, then the size of each block in order). The
wrapper is in place before the command starts, so the workers of a
``sweep --jobs N`` pool, forked from it, append theirs too.
"""

import sys

from debiaskit import classifier, cli


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    seen = set()
    row_blocks = classifier.row_blocks

    def recorded(params, n):
        blocks = row_blocks(params, n)
        line = f"{n}=" + "+".join(str(b.stop - b.start) for b in blocks)
        if line not in seen:
            seen.add(line)
            with open(record, "a") as f:
                f.write(line + "\n")
        return blocks

    classifier.row_blocks = recorded
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
