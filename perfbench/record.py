"""Record the exit status and stdout digest of the benchmark's fixed commands.

    python3 perfbench/record.py      (from the root of a checkout)

Writes perfbench/expected.json, which the sweep, line and menu commands are
checked against.  Outputs are meant to stay byte-identical, so record again
only when a change of output is intended, and say so where it lands.  The
malformed inputs are run too, and any that does not exit 2 is reported.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "tests"))

from run import spawn  # noqa: E402
from workloads import EXPECTED_FILE, LINE, MALFORMED, MENU_COMMANDS, SWEEP, key  # noqa: E402


def run_all(argvs, fresh: bool) -> list[dict]:
    if fresh:
        return [spawn({"passes": [[a]], "seconds": 0})["results"][0] for a in argvs]
    return spawn({"passes": [argvs], "seconds": 0})["results"]


def main() -> int:
    expected, bad = {}, []
    for argvs, fresh in ((SWEEP + LINE, True), (MENU_COMMANDS, False)):
        for argv, res in zip(argvs, run_all(argvs, fresh)):
            if res["code"] != 0 or res["err"]:
                bad.append(f"{argv}: exit {res['code']} {res['err'][-200:]}")
            expected[key(argv)] = {"code": res["code"], "sha": res["sha"]}
    for argv, res in zip(MALFORMED, run_all(MALFORMED, False)):
        if res["code"] != 2 or "Traceback" in res["err"]:
            bad.append(f"malformed {argv}: exit {res['code']} {res['err'][-200:]}")
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    for b in bad:
        print("unexpected:", b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
