"""Measure every workload on several seeds and write the baseline file.

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json it makes one untraced run per seed
1..10 and one traced run (seed 1), with BENCHMARK.json's run length, and
writes perfbench/baseline.json.  Each end-to-end metric is
reported as the median over seeds with its quartiles and its spread (the
distance between the quartiles as a share of the median), next to the bound
BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    layer_spec = {m["name"]: m for m in bench["per_layer"]}

    sys.path.insert(0, str(HERE))
    from run import machine_info

    out: dict = {"run_seconds": seconds, "seeds": SEEDS, "machine": machine_info(), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)
        e2e = {}
        for name, m in spec.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            e2e[name] = {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid, "values": values,
                         "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            flag = "ok" if e2e[name]["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {name:<14} median {mid:.6g} {m['unit']}  spread {e2e[name]['spread']:.4f}  bound {m['bound']}  {flag}")
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {name: {**traced["metrics"][name], "better": layer_spec[name]["better"]}
                          for name in layer_spec},
            "per_layer_seed": SEEDS[0],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print("wrote perfbench/baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
