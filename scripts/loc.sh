#!/usr/bin/env bash
# Non-test Go lines outside bench/: the size figure ROADMAP aim 2 and
# every CHANGES.md entry quote. CI prints it in the benchmark smoke step.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
