#!/usr/bin/env python3
"""Produce every standard data artifact into a results directory.

Runs the violation-curve sweep, the cat-purity sweep, a GHZ detection
probe, the lattice validation report and one cat-experiment estimation,
all with fixed seeds so the outputs are byte-reproducible.
"""

import argparse
import pathlib
import sys

from puritynet.cli import main as cli


def run(argv):
    print("  puritynet " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    run(["fig2a", "--n", "3", "--points", "101", "--out", str(out / "violations_n3.csv")])
    run(["fig2a", "--n", "3", "--points", "101", "--family", "superposition",
         "--out", str(out / "violations_n3_superposition.csv")])
    run(["fig2b", "--n", "300", "--m", "1,7,14,20", "--points", "101",
         "--out", str(out / "cat_purity_n300.csv")])

    # The probe reads the spec inline, so its report names no path and the
    # artifacts do not depend on --out-dir.
    ghz_spec = "statespec v1\nkind = ghz\nn = 4\n"
    (out / "ghz4.spec").write_text(ghz_spec)
    run(["probe", "--spec-text", ghz_spec, "--out", str(out / "ghz4_probe.json")])

    run(["lattice-validate", "--j", "1.0", "--u", "0.0", "--seed", str(args.seed),
         "--out", str(out / "lattice_validate.json")])
    run(["cat-experiment", "--n", "300", "--epsilon", "0.6", "--survival", "0.95",
         "--runs", "1000", "--seed", str(args.seed), "--out", str(out / "cat_experiment.json")])

    print(f"artifacts written to {out}/")


if __name__ == "__main__":
    main()
