"""Record the outputs that pinned ops must reproduce, into expected.json.

    python3 bench/record.py

Run from the repository root on the commit whose outputs are the
reference.  Each workload's seed-0 ops run once; every pinned op's
fingerprint (a report digest, a control point list, a refusal message) is
stored under the op's kind.  A later change that alters these outputs on
purpose re-records them in the same change and says why.
"""

import json
import os
import re
import sys
from pathlib import Path

import run
import workloads


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    expected = {}
    for name, build in workloads.WORKLOADS.items():
        expected[name] = {}
        for op in build(0):
            if op.pinned:
                outcome = op.check(op.run())
                if outcome.problems:
                    sys.exit(f"{op.kind}: {outcome.problems}")
                expected[name][op.kind] = outcome.fingerprint
                print(f"{name}: {op.kind}", flush=True)
    text = json.dumps(expected, indent=1, sort_keys=True)
    # one point per line
    text = re.sub(r'\[\s+("[^"]*"(?:,\s+"[^"]*")*)\s+\]',
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)
    path = Path(workloads.__file__).with_name("expected.json")
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
