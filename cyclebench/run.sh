#!/usr/bin/env bash
# Builds shadowd and the benchmark from the checkout's sources, then runs
# the benchmark. Run from the repository root:
#
#   bash cyclebench/run.sh --workload edit-large --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/shadowd || ! -f cyclebench/go.mod ]]; then
	echo "cyclebench: run from the repository root (go.mod, cmd/shadowd and cyclebench/ are needed)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# VCS stamping is off so a checkout without git metadata builds the same
# way; the commit, when there is one, is passed in for the host record.
commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ "$top" == "$(pwd)" ]]; then
	commit=$(git rev-parse HEAD)
fi
go build -buildvcs=false -o "$out/shadowd" ./cmd/shadowd >&2
(cd cyclebench && go build -buildvcs=false -o "$out/cyclebench" .) >&2
exec "$out/cyclebench" -shadowd "$out/shadowd" -out "$out" -commit "$commit" "$@"
