#!/usr/bin/env bash
# House rule (i) (ROADMAP): interleaved parent/change pairs of the
# repository benchmark on one workload, alternating which side runs first.
#
#   scripts/bench-pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS=10] [SEED0]
#
# Each run is `bash bench/run.sh --workload W --seed S --seconds 15 --trace 0`
# in its checkout; pair i uses seed SEED0+i on both sides (SEED0 defaults to
# the clock, so seeds are fresh). Prints one line per run, then the change's
# wins on round_p50_ms, both sides' medians, the parent's quartiles and IQR,
# and where each binary's reference loops landed (scripts/calib-align.sh;
# ROADMAP item 8(g): binaries at different phases read about 5 % apart for
# that reason alone). Exits non-zero if a run failed or was incorrect, or if
# a pair's modelled cycles differ. Reads the benchmark's output only.
set -euo pipefail
if [ $# -lt 3 ]; then
  sed -n '2,6p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed0=${5:-$(($(date +%s) % 1000000))}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

run() { # side checkout seed
  bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds 15 --trace 0 2>/dev/null |
    python3 -c '
import json, sys
side, seed = sys.argv[1:]
d = json.load(sys.stdin)
m = {k: v["value"] for k, v in d["metrics"].items()}
print("%s seed=%s correct=%s failed=%d setup_s=%.4f round_p50_ms=%.3f sim_mips=%.2f mcycles=%r" % (
    side, seed, d["correct"], d["failed"], m["setup_s"], m["round_p50_ms"], m["sim_mips"],
    m["modeled_mcycles_per_round"]))
' "$1" "$3" | tee -a "$runs"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
done

echo "--- $workload, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1))"
for side in parent change; do
  dir=$parent
  [ "$side" = change ] && dir=$change
  echo "$side phases: $(bash "$here/calib-align.sh" "$dir" | sed 's/ 0x[0-9a-f]*//' | paste -sd' ')"
done
python3 - "$runs" <<'EOF'
import statistics, sys

rows = {}
bad = 0
for line in open(sys.argv[1]):
    side, *fields = line.split()
    f = dict(x.split("=", 1) for x in fields)
    rows.setdefault(f["seed"], {})[side] = f
    if f["correct"] != "True" or f["failed"] != "0":
        print("FAILED RUN:", line.strip())
        bad += 1

wins = ties = 0
for seed, pair in rows.items():
    p, c = pair["parent"], pair["change"]
    # One workload's modelled cycles are a pure function of its jobs; the
    # mean over a side's rounds may differ in the last bits of a float.
    if abs(float(p["mcycles"]) - float(c["mcycles"])) > 1e-9 * float(p["mcycles"]):
        print("MODELLED CYCLES DIFFER at seed %s: parent %s, change %s" % (seed, p["mcycles"], c["mcycles"]))
        bad += 1
    pp, cc = float(p["round_p50_ms"]), float(c["round_p50_ms"])
    wins += cc < pp
    ties += cc == pp

def col(side, key):
    return [float(pair[side][key]) for pair in rows.values()]

print("round_p50_ms: change wins %d of %d pairs (%d ties)" % (wins, len(rows), ties))
for key in ("round_p50_ms", "setup_s", "sim_mips"):
    p, c = col("parent", key), col("change", key)
    mp, mc = statistics.median(p), statistics.median(c)
    line = "%-13s median parent %.4f, change %.4f (%+.1f %%)" % (key, mp, mc, 100 * (mc - mp) / mp)
    if len(p) >= 4:
        q = statistics.quantiles(p, n=4)
        line += "; parent quartiles %.4f..%.4f, IQR %.4f" % (q[0], q[2], q[2] - q[0])
    print(line)
sys.exit(1 if bad else 0)
EOF
