"""A fixed piece of work that tells how fast the box is running right now.

The machine this benchmark has to run on changes speed by up to a quarter
for minutes at a time (see ``README.md`` § *Clock*): every process on it —
a set-up, a ``repro report`` child, this file — then costs that much more
CPU time.  The harness runs this file as a child between the operations it
measures, and divides what they cost by what this costs relative to
:data:`benchenv.REFERENCE_CPU_S`.

It does, in small, what the measured operations do — start an interpreter,
import numpy, churn through Python objects and strings, sort and count with
numpy, compress, render JSON — and nothing of ``repro``: a change to the
repository must not be able to move it.  It imports nothing of the benchmark
either, and must not be edited once a baseline has been taken.
"""

import json
import random
import zlib

import numpy


def main() -> None:
    rng = random.Random(1)
    rows = [
        {"account": f"acct{rng.randrange(5000):05d}", "amount": rng.random() * 100, "block": i // 7}
        for i in range(30000)
    ]
    by_account = {}
    for row in rows:
        by_account.setdefault(row["account"], []).append(row["amount"])
    totals = {account: sum(amounts) for account, amounts in by_account.items()}
    codes = numpy.arange(300000, dtype=numpy.int64) * 7919 % 10007
    for _ in range(3):
        numpy.unique(codes, return_counts=True)
    blob = zlib.compress(codes.tobytes(), 1)
    text = json.dumps(totals, sort_keys=True)
    if len(json.loads(text)) != len(totals) or len(zlib.decompress(blob)) != codes.nbytes:
        raise SystemExit("reference: wrong result")


if __name__ == "__main__":
    main()
