#!/usr/bin/env python3
"""Write the golden outputs of a fixed command set into OUTDIR.

Each command runs in its own subdirectory of OUTDIR, which receives the
command's output files, its stdout (``stdout.txt``, ending with the exit
code) and its warnings (``warnings.txt``, one ``Category: message`` line
each, without the file path, which differs between checkouts).  A change
that claims to leave results unchanged is checked by running this on both
versions and comparing with one ``diff -r``, which also shows a warning that
appears or disappears:

    PYTHONPATH=../parent/src python scripts/golden_outputs.py /tmp/parent
    PYTHONPATH=src python scripts/golden_outputs.py /tmp/change
    diff -r /tmp/parent /tmp/change

Takes about 6 s on 2 cores (5.8 to 6.9 s, 3 runs). ``adaptive_large`` takes
about 2.3 s of it and ``adaptive_ex2_none`` about 0.9 s; no other command takes
more than 0.5 s.
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path

from heatbem.cli import main

COMMANDS = {
    "uniform_ex1": ["study-uniform", "--example", "1", "--levels", "9", "--kappa", "both"],
    # levels 10 and 11 lie above the default kappa cap: no kappa columns, no N x N array
    "uniform_ex1_L11": ["study-uniform", "--example", "1", "--levels", "11"],
    # it_none at L7-9 moves by one under a change of rounding; it_diag is copied from it
    # (diag(V) is one scalar); tests/golden/uniform_ex2_L9 holds this command's tables
    "uniform_ex2_L9": ["study-uniform", "--example", "2", "--levels", "9"],
    "adaptive_ex2": ["study-adaptive", "--example", "2", "--target-n", "278"],
    # unpreconditioned counts up to 779 iterations at N = 908; no kappa columns
    "adaptive_ex2_none": ["study-adaptive", "--example", "2", "--target-n", "700",
                          "--precond", "none", "--max-kappa-n", "0"],
    # the sv columns of the Hankel flips at a second alpha
    "uniform_ex1_sv_0.01": ["study-uniform", "--example", "1", "--levels", "9", "--kappa", "sv",
                            "--alpha", "0.01"],
    # the eig columns at a second alpha
    "uniform_ex1_eig_2pi2": ["study-uniform", "--example", "1", "--levels", "9", "--kappa", "eig",
                             "--alpha", "19.739208802178716"],
    "uniform_ex2_dump": ["study-uniform", "--example", "2", "--levels", "4",
                         "--kappa", "eig", "--dump-matrices"],
    "solve_L11": ["solve", "--level", "11",
                  "--points", "0.25,0.1;0.5,0.3;0.75,0.05;0.1,0.9"],
    "solve_L3_ex2_dump": ["solve", "--level", "3", "--example", "2", "--dump-matrices"],
    "adaptive_ex2_eig": ["study-adaptive", "--example", "2", "--target-n", "60",
                         "--kappa", "eig"],
    "adaptive_ex2_both": ["study-adaptive", "--example", "2", "--target-n", "278",
                          "--kappa", "both"],
    # mirror meshes that are not Toeplitz: the svd and the 2 x 2 slab stacks of the
    # formed matrices
    "adaptive_ex1_both": ["study-adaptive", "--example", "1", "--target-n", "278",
                          "--kappa", "both"],
    # dense V and D up to N = 2858 (2437 merged breaks) and bisected meshes up to
    # N_f = 3926: many column chunks per side and march blocks; no kappa columns
    "adaptive_large": ["study-adaptive", "--example", "2", "--target-n", "2500",
                       "--precond", "calderon", "--max-kappa-n", "0"],
}


def run_all(outdir: Path) -> int:
    failures = 0
    for name, argv in COMMANDS.items():
        target = outdir / name
        target.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(target)])
        (target / "stdout.txt").write_text(buf.getvalue() + f"exit {code}\n")
        (target / "warnings.txt").write_text(
            "".join(f"{w.category.__name__}: {w.message}\n" for w in caught))
        failures += code != 0
    return failures


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_outputs.py OUTDIR")
    sys.exit(1 if run_all(Path(sys.argv[1])) else 0)
