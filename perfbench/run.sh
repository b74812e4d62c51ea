#!/usr/bin/env bash
# Builds the benchmark and the permchain sources it drives into
# .bench_build/, then runs it with the caller's arguments, e.g.
#
#   bash perfbench/run.sh --workload ledger-durable --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, per-run store directories, span dumps) stays
# under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, temporary files and user config
# (telemetry counters) inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Identify the code under test: the git commit when the checkout is a
# repository, otherwise a digest of the Go sources.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	commit="tree-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$out/perfbench" -commit "$commit" -workdir "$out" "$@"
