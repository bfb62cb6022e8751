#!/usr/bin/env bash
# Where the benchmark's host-speed reference loops landed in a checkout's
# benchmark binary: the addresses of main.interpret and main.sweepLanes
# modulo 64 (ROADMAP item 8(g)). Two binaries whose phases differ read
# about 5 % apart on every timed metric for that reason alone, so a gain
# claim states both sides' phases beside its table.
#
#   scripts/calib-align.sh [checkout]    # default: this checkout
#
# The binary is the one `bash bench/run.sh` leaves in .bench_build/.
set -euo pipefail
root=${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}
bin=$root/.bench_build/mobilesim-bench
if [ ! -x "$bin" ]; then
  echo "calib-align: $bin not found: run 'bash bench/run.sh -check' in $root first" >&2
  exit 1
fi
n=0
while read -r addr _ name; do
  case $name in
    main.interpret | main.sweepLanes)
      echo "$name 0x$addr mod64=$((16#$addr % 64))"
      n=$((n + 1))
      ;;
  esac
done < <(go tool nm "$bin")
if [ "$n" -ne 2 ]; then
  echo "calib-align: expected main.interpret and main.sweepLanes in $bin, found $n" >&2
  exit 1
fi
