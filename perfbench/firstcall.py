"""Set-up probe: time `import intop` plus the workload's first call.

Run as `python3 perfbench/firstcall.py <workload>` with `src` on PYTHONPATH;
prints the elapsed seconds. run.py starts it in fresh interpreters, one after
another, and reports the median as setup_s. run.py also imports first_call to
warm the measuring process up before it times anything.
"""

import contextlib
import io
import sys
import time


def first_call(workload: str) -> None:
    """The cheapest call that reaches the layers the workload exercises."""
    with contextlib.redirect_stdout(io.StringIO()):
        if workload == "verify":
            import numpy as np
            from intop.verify import check_positivity_identity
            check_positivity_identity(lambda x: np.ones_like(np.asarray(x, float)),
                                      (0.0, 1.0))
            return
        from intop.cli import main
        family = "legendre" if workload == "pipelines" else "chebyshev1"
        cmd = "ft-invert" if workload == "pipelines" else "matrices"
        argv = [cmd, "--n", "5"] + (["--family", family] if cmd == "matrices" else [])
        if main(argv) != 0:
            raise RuntimeError(f"first call {argv} failed")


if __name__ == "__main__":
    start = time.perf_counter()
    import intop  # noqa: F401  (the import is what is being timed)
    first_call(sys.argv[1])
    print(repr(time.perf_counter() - start))
