"""Digests of the intop command line over a fixed grid of requests.

Runs each request in-process through intop.cli.main and prints one line per
request: the exit code, the blake2b digest of exit code, stdout and stderr
together, and the arguments. Two checkouts whose outputs agree byte for byte
print the same lines, so a change that must not alter any artifact is
checked with

    python3 -W error::RuntimeWarning tools/cli_digests.py /path/to/parent > parent.txt
    python3 -W error::RuntimeWarning tools/cli_digests.py > change.txt
    diff parent.txt change.txt

(with the warning filter, a RuntimeWarning leaked on any request stops the
run with a traceback).

The grid runs twice in one process and only the first pass is printed; the
script exits non-zero, naming the request, if a repeat's digest differs from
its first run, so the answers served from the memos are checked byte for
byte as well as the builds that fill them.

The optional argument is the root of the checkout to import intop from
(default: the one holding this script). Only the standard library is used
besides intop itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

FAMILIES = ("legendre", "chebyshev1", "gegenbauer:0.8", "jacobi:0.3,-0.4")
DEMOS = ("ft-invert", "lt-invert", "control", "ode", "wiener-hopf")
# One interval per eigen-route subcommand other than its default.
INTERVALS = {"eigs": ("0.5", "2.5"), "ft-invert": ("1", "3"),
             "lt-invert": ("0.5", "1.5"), "control": ("0.5", "2.5"),
             "ode": ("0.25", "0.75"), "wiener-hopf": ("-0.5", "0.5")}


def grid() -> list[list[str]]:
    """matrices at n = 1, 5, 16 and for each family kind at n = 5, 60 and
    200 (past every other request, where a change of node solver would
    first move bits);
    eigs and the five demos at n = 1, 5, 11, 15, 16 (the eigen route refuses
    n = 16) and once on a non-default interval; control with non-default
    alpha and beta, and with alpha = 0 at n = 5 and 16; ode at n = 40; a
    NaN drive rate and intervals too long for the ode and wiener-hopf demos;
    drives and exact solutions that overflow; negative values in exponent
    notation given after a space; the scan and the suite; both formats throughout; and the suite as the
    verify benchmark calls it, with 100 samples."""
    fmts = [("--format", fmt) for fmt in ("csv", "json")]
    requests = [["matrices", "--n", str(n), *f] for n in (1, 5, 16) for f in fmts]
    requests += [[cmd, "--n", str(n), *f] for cmd in ("eigs", *DEMOS)
                 for n in (1, 5, 11, 15, 16) for f in fmts]
    requests += [["matrices", "--family", fam, "--n", str(n), *f]
                 for fam in FAMILIES for n in (5, 60, 200) for f in fmts]
    requests += [[cmd, "--a", a, "--b", b, *f]
                 for cmd, (a, b) in INTERVALS.items() for f in fmts]
    requests += [["control", "--alpha", "0.5", "--beta", "1.2", *f] for f in fmts]
    # alpha = 0 is refused after the factorization: exit 1 at n = 5, exit 2
    # at n = 16 where the factorization is refused first
    requests += [["control", "--n", n, "--alpha", "0"] for n in ("5", "16")]
    # ode at n = 40: Hermite refinement of degree 79 stays at rounding level
    requests += [["ode", "--n", "40", *f] for f in fmts]
    # refused inputs: a NaN rate (exit 1) and overflowing intervals (exit 2)
    requests += [["control", "--beta", "nan"], ["ode", "--b", "1e300"],
                 ["wiener-hopf", "--b", "30"]]
    # finite inputs whose drive e^(-beta t) or exact e^(-t) overflows (exit 2)
    requests += [["control", "--beta=-400", "--alpha", alpha]
                 for alpha in ("1e-300", "1e-8", "50")]
    requests += [["control", "--alpha", "1e300", "--beta=-400"],
                 ["control", "--a=-1e300", "--b=-1e299"],
                 ["ft-invert", "--a=-1e300", "--b=-1e299"]]
    # negative values in exponent notation after a space: exit 2, 0 and 1
    requests += [["ode", "--a", "-1e300", "--b", "0"],
                 ["ode", "--a", "-1e-5", "--b", "0"], ["ft-invert", "--a", "-inf"]]
    requests += [["conjecture", "--n-max", "30", "--format", fmt]
                 for fmt in ("json", "csv")]
    requests += [["verify", "--samples", "6", "--format", fmt]
                 for fmt in ("json", "csv")]
    requests.append(["verify", "--samples", "100", "--format", "json"])
    return requests


def digest(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    h = hashlib.blake2b(digest_size=16)
    for part in (str(code), out.getvalue(), err.getvalue()):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return code, h.hexdigest()


def run(root: Path) -> int:
    """Print the first pass; return the number of repeats that differ."""
    sys.path.insert(0, str(root / "src"))
    from intop.cli import main

    requests = grid()
    first = []
    for argv in requests:
        code, hexdigest = digest(main, argv)
        first.append(hexdigest)
        print(code, hexdigest, " ".join(argv), flush=True)
    mismatches = 0
    for argv, hexdigest in zip(requests, first):
        if digest(main, argv)[1] != hexdigest:
            mismatches += 1
            print("repeat differs:", " ".join(argv), file=sys.stderr)
    return mismatches


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: cli_digests.py [checkout-root]")
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.exit(1 if run(root) else 0)
