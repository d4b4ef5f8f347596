#!/usr/bin/env bash
# goloc.sh — count the module's Go lines, split into non-test and test
# files. The perfbench/ module and the .bench_build/ cache are left out:
# the count tracks the program and its tests, not the benchmark harness.
#
# Usage: scripts/goloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find . \( -path ./.git -o -path ./perfbench -o -path ./.bench_build \) -prune \
    -o -type f -name '*.go' "$@" -print0 | xargs -0 cat | wc -l
}

echo "non-test Go lines: $(count ! -name '*_test.go')"
echo "test Go lines:     $(count -name '*_test.go')"
