"""Starts the cold `python -m dirough` children of cli-cold from a small process.

The peak-memory figure the kernel keeps for a child includes the memory of
the process that started it, since the child runs in a copy of that process
until it executes the new program. The worker holds inputs and checks
outputs, so it hands each command to this process, which imports nothing
heavy, and the children's peak memory is their own.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "env",
"timeout"}; one JSON reply per line on stdout, {"rc", "stdout", "stderr",
"children_maxrss_kb"}, where rc is null when the child timed out. The
process exits when stdin closes.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        try:
            p = subprocess.run(
                req["argv"], capture_output=True, cwd=req["cwd"], env=req["env"], timeout=req["timeout"]
            )
            reply = {"rc": p.returncode, "stdout": p.stdout.decode("utf-8"), "stderr": p.stderr.decode("utf-8")}
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            reply = {"rc": None, "stdout": "", "stderr": f"timed out after {req['timeout']} s"}
        reply["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
