#!/usr/bin/env python3
"""Record the sha256 of every count and series job the workloads can draw.

The digests pin the byte-identical output contract: run this once, at the
commit whose output is the reference, from the root of the checkout:

    python3 perfbench/record_digests.py

It rewrites perfbench/digests.json.  Later commits must reproduce every
digest; a commit that changes output on purpose re-records them in its own
change and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402


def main() -> int:
    cli = run.import_program()
    run.WORK.mkdir(exist_ok=True)
    out = run.WORK / "record.out"
    space = {job.key: job for strata in jobs.WORKLOADS.values() for stratum in strata
             if stratum.check == "digest" for job in stratum.space()}
    env = run.environment()
    old = json.loads(checks.DIGESTS_PATH.read_text()) if checks.DIGESTS_PATH.exists() else {}
    # digests recorded from these very sources stay valid
    digests = old.get("digests", {}) if old.get("src_sha256") == env["src_sha256"] else {}
    digests = {key: digests[key] for key in space if key in digests}
    for i, (key, job) in enumerate(sorted(space.items())):
        if key in digests:
            continue
        rc = run.invoke(cli, [*job.argv, "--out", str(out)])
        if rc != 0:
            print(f"error: {key} -> {rc}", file=sys.stderr)
            return 1
        digests[key] = checks.sha256(out.read_bytes())
        if i % 100 == 0:
            print(f"{i}/{len(space)} {key}", file=sys.stderr)
    out.unlink(missing_ok=True)
    checks.DIGESTS_PATH.write_text(json.dumps(
        {"git_rev": env["git_rev"], "src_sha256": env["src_sha256"], "digests": digests},
        indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
