"""One benchmark repetition in its own process.

    python3 perfbench/child.py --src SRC --result FILE --trace 0|1 cli -- ARGV...
    python3 perfbench/child.py --src SRC --result FILE --trace 0|1 refit --out DIR --cutoffs N,N,... CSV...

`cli` runs `afvol.cli.main(ARGV)` exactly as the `afvol` command would.
`refit` walks forward over each price file in turn: at each cutoff n it
fits GARCH and GJR by maximum likelihood on the first n returns, filters,
and makes a one-step volatility forecast, writing the results to
refits.csv.  Either way the process writes one JSON result: exit code, end
time, peak RSS, its spans and, for `refit`, any error per walk and cutoff.  The benchmark process checks
the outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import traceback

from spans import COARSE, DETAIL, Tracer, clock_ns


def run_cli(afvol, argv: list[str]) -> int:
    try:
        return afvol.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 2


def run_refit(afvol, tracer: Tracer, csv_paths: list[str], out_dir: str, cutoffs: list[int]) -> list:
    """Refit at each cutoff of each file; write refits.csv; return the errors."""
    garch, pipeline = afvol.garch, afvol.pipeline
    walks = [(os.path.basename(p), pipeline.log_returns(pipeline.load_price_csv(p))) for p in csv_paths]

    def refit(r):
        fits = []
        for kind in ("garch", "gjr"):
            params, ll = garch.fit_mle(r, kind)
            path = garch.garch_filter(params, r, kind)
            fits.append((kind, params, ll, garch.forecast_sigma(params, path, kind)))
        return fits

    outcomes = []
    with open(f"{out_dir}/refits.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "n", "kind", "omega", "alpha", "beta", "gamma", "loglik", "forecast_sigma"])
        for name, returns in walks:
            for n in cutoffs:
                try:
                    fits = tracer.span("refit", refit, returns[:n])
                except Exception as exc:  # a failed refit is counted, the walk goes on
                    outcomes.append({"file": name, "n": n, "error": f"{type(exc).__name__}: {exc}"})
                    continue
                outcomes.append({"file": name, "n": n, "error": None})
                for kind, p, ll, sigma in fits:
                    gamma = repr(p.gamma[0]) if p.gamma else ""
                    writer.writerow([name, n, kind, repr(p.omega), repr(p.alpha[0]), repr(p.beta[0]), gamma, repr(ll), repr(sigma)])
    return outcomes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("cli").add_argument("argv", nargs=argparse.REMAINDER)
    refit = sub.add_parser("refit")
    refit.add_argument("--out", required=True)
    refit.add_argument("--cutoffs", required=True)
    refit.add_argument("inputs", nargs="+")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import afvol.cli  # imports every afvol module

    tracer = Tracer()
    tracer.install(afvol, COARSE + (DETAIL if args.trace else []))

    result: dict = {"refits": []}
    try:
        if args.mode == "cli":
            argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            code = run_cli(afvol, argv)
        else:
            cutoffs = [int(c) for c in args.cutoffs.split(",")]
            result["refits"] = run_refit(afvol, tracer, args.inputs, args.out, cutoffs)
            code = 0
    except Exception:
        code = 1
        result["error"] = traceback.format_exc()
    result.update(
        exit=code,
        end_ns=clock_ns(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        trace=tracer.dump(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
