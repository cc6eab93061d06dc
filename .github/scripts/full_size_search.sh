#!/usr/bin/env bash
# Full-size search correctness: the benchmark's search questions at full
# size with their node pins, node-limited walks at orders 14, 22 and 24,
# and order 26 refused by the lane-mask budget.  Run from the repository
# root with the package installed (the `hadamardesque` console script).
set -euo pipefail

# The smoke test shrinks the search questions; read the result line.
python3 perfbench/run.py --workload search --seed 1 --seconds 1 | tail -1 | python3 -c "import json,sys; r=json.load(sys.stdin); sys.exit(not (r['correct'] and r['failed'] == 0))"
python3 -c "import json,sys; n=json.load(open('perfbench/out/run-search.json'))['search.nodes']; sys.exit(not (n['S1'] == [970] and n['S2'] == [4, 40] and n['S3'] == [100000]))"

# A node-limited normalized search of order m must exit 4 after exactly `nodes` nodes.
node_limited() {
  local m=$1 nodes=$2 out code
  out=$(hadamardesque search "$m" --normalize --node-limit "$nodes" --json) && code=0 || code=$?
  python3 -c "import json,sys; r=json.loads(sys.argv[2]); sys.exit(not (sys.argv[1] == '4' and r['nodes'] == int(sys.argv[3]) and r['limit_fired'] == 'nodes'))" "$code" "$out" "$nodes"
}

# Order 14 has over 1,024 candidate bits: the walk's wide branch, at full size.
node_limited 14 20000
# Order 22, walked past the depth where lanes first reach m/2 - 1.
node_limited 22 2000
# Order 24, the largest admitted, and order 26, over the lane-mask budget (exit 4).
node_limited 24 2000
hadamardesque search 26 && code=0 || code=$?
test "$code" = 4
