"""Run one ``debiaskit`` CLI command and record its full-data passes, their
row blocks, and the amplification memo's hits and misses.

    python scripts/block_recorder.py RECORD debias --config d4.json ...

Wraps ``debiaskit.classifier.logit_blocks`` (with every binding of it that
a loaded ``debiaskit`` module imported), ``classifier.row_blocks``,
``debias.train`` and ``debias.train_biased_classifier`` (with the binding
``cli`` imported), then calls ``cli.main`` with the remaining arguments, so
the command prints and writes what ``python -m debiaskit.cli`` would. Each
distinct partition that a call of ``row_blocks`` returns is appended to the
file RECORD as one line, ``n=size+size+...`` (rows, then the size of each
block in order). Every full-data pass (a call of ``logit_blocks``) appends
``pass``, and every amplification ``memo=miss`` (a ``debias.train`` call
with ``loss="gce"``) or ``memo=hit`` (a ``train_biased_classifier`` call
that returned without one); these are not deduplicated. The wrappers are in
place before the command starts, so the workers of a ``sweep --jobs N``
pool, forked from it, append theirs too.
"""

import sys

from debiaskit import classifier, cli, debias


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    seen = set()
    logit_blocks, row_blocks, train, amplify = (
        classifier.logit_blocks, classifier.row_blocks, debias.train,
        debias.train_biased_classifier)
    misses = 0  # this process's; a forked worker starts from its parent's count

    def append(line):
        with open(record, "a") as f:
            f.write(line + "\n")

    def recorded(params, n):
        blocks = row_blocks(params, n)
        line = f"{n}=" + "+".join(str(b.stop - b.start) for b in blocks)
        if line not in seen:
            seen.add(line)
            append(line)
        return blocks

    def counted_pass(params, x, ws):
        append("pass")
        return logit_blocks(params, x, ws)

    def counted_train(ds, cfg, **kw):
        nonlocal misses
        if kw.get("loss") == "gce":
            misses += 1
            append("memo=miss")
        return train(ds, cfg, **kw)

    def counted_amplify(*args, **kwargs):
        before = misses
        art = amplify(*args, **kwargs)
        if misses == before:
            append("memo=hit")
        return art

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "debiaskit":
            for attr, value in list(vars(module).items()):
                if value is logit_blocks:
                    setattr(module, attr, counted_pass)
    classifier.row_blocks = recorded
    debias.train = counted_train
    debias.train_biased_classifier = cli.train_biased_classifier = counted_amplify
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
