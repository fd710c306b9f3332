#!/usr/bin/env bash
# go-test-run.sh PATTERN PKG... [-- GO_TEST_FLAGS...]
#
# Runs `go test GO_TEST_FLAGS -run PATTERN PKG...`, but first fails if
# any listed package has no test, benchmark, fuzz target or example
# whose name PATTERN matches: `go test -run` passes silently when a
# pattern selects nothing, so a renamed or deleted test would otherwise
# drop out of a named CI step unseen.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 PATTERN PKG... [-- GO_TEST_FLAGS...]" >&2
  exit 2
fi
pattern=$1
shift
pkgs=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  pkgs+=("$1")
  shift
done
[ $# -gt 0 ] && shift
flags=("$@")

for pkg in "${pkgs[@]}"; do
  n=$(go test "${flags[@]}" -list "$pattern" "$pkg" | grep -cv '^\(ok\|?\) ' || true)
  if [ "$n" -eq 0 ]; then
    echo "go-test-run: -run '$pattern' matches no test in $pkg" >&2
    exit 1
  fi
done
exec go test "${flags[@]}" -run "$pattern" "${pkgs[@]}"
