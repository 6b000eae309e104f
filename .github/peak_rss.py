"""Run a command and fail unless it exits 0 with a peak RSS below a bound.

Usage: python .github/peak_rss.py MAX_MB -- COMMAND [ARG...]

The peak is the largest resident set of the command or of any descendant it
waited for. The line ``exit status N, peak RSS X MB`` goes to stderr, so the
command's stdout may be redirected on its own; the exit status is 1 when the
command failed or its peak reached MAX_MB.
"""

import resource
import subprocess
import sys


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: peak_rss.py MAX_MB -- COMMAND [ARG...]")
    max_mb = float(argv[0])
    status = subprocess.run(argv[2:]).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit status {status}, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    return int(status != 0 or peak_mb >= max_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
