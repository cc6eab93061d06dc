#!/usr/bin/env bash
# Full-size workload correctness: one benchmark workload at full size (the
# smoke test shrinks its inputs), seed 1 for 2 s, must end correct with no
# failed operation.  run.py's exit code ignores ERROR and REFUSED verdicts,
# so the script reads the result line.  Run from the repository root:
#   bash .github/scripts/full_size_workload.sh ingest
set -euo pipefail

workload=${1:?usage: full_size_workload.sh WORKLOAD}
python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 | tail -1 | python3 -c "import json,sys; r=json.load(sys.stdin); sys.exit(not (r['correct'] and r['failed'] == 0))"
