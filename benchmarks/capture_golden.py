"""Write golden.json: the digests the benchmark checks outputs against.

    python3 benchmarks/capture_golden.py

Run it only at a commit whose outputs are known good (the committed file
was captured at the commit that introduced the benchmark).  It records,
for every valid cli-mix case, the SHA-256 of stdout of a real
``python -m tritave`` process (which must exit 0), and the SHA-256 of every emitter
output of a harmony-tables reproduction pass.  Malformed cases are checked
against the README contract instead, so they have no golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    env = workloads.child_env(ROOT)
    sample = (ROOT / "src" / "tritave" / "data" / "sample_progression.txt").read_bytes()
    cli = {}
    for case in inputs.cli_catalogue():
        if case.group == "malformed":
            continue
        stdin = sample if case.stdin == "sample" else b""
        _, code, out, err, _ = workloads.spawn(
            [sys.executable, "-m", "tritave", *case.argv], env, ROOT, stdin)
        if code != 0 or err:
            print(f"error: {case.key} exited {code}: {err.strip()}", file=sys.stderr)
            return 1
        cli[case.key] = workloads.digest(out)
    passed, outputs = workloads.reproduction()
    if not passed:
        print("error: verify_tables() fails here", file=sys.stderr)
        return 1
    golden = {"cli": cli,
              "emitters": {k: workloads.digest(v) for k, v in sorted(outputs.items())}}
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {len(cli)} cli and {len(outputs)} emitter digests to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
