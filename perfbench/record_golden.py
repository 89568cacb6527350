"""Record the correctness gate's golden data from the current source tree.

Writes ``golden/digests.json`` (per workload and seed, the SHA-256 of the
first GATE_TRIALS and PREFIX_TRIALS per-trial sweep reports) and one
``golden/cli/<case>.json`` per CLI corpus case.  Run it only at a commit
whose reports are known good; the gate exists to keep them unchanged.

    python3 perfbench/record_golden.py
"""

import json
import os
import sys

import gate
import workloads


def main() -> int:
    workloads.import_package()
    digests = {}
    for name, wl in workloads.WORKLOADS.items():
        run = workloads.trial_runner(wl)
        digests[name] = {}
        for seed in (workloads.PRIMARY_SEED, workloads.HOLDOUT_SEED):
            texts = []
            for trial in range(gate.PREFIX_TRIALS):
                report = run(workloads.sweep_seed(seed, trial))
                if report.conclusion_violated:
                    raise SystemExit(f"{name} seed {seed} trial {trial}: theorem violation")
                texts.append(workloads.report_text(report))
            digests[name][str(seed)] = {
                str(n): gate.digest(texts[:n]) for n in (gate.GATE_TRIALS, gate.PREFIX_TRIALS)
            }
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    os.makedirs(gate.CLI_DIR, exist_ok=True)
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for case in gate.load_corpus():
        code, out, err = gate.run_cli(case["argv"])
        with open(os.path.join(gate.CLI_DIR, f"{case['name']}.json"), "w", encoding="utf-8") as fh:
            json.dump({"argv": case["argv"], "exit_code": code, "stdout": out, "stderr": err},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
