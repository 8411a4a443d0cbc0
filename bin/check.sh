#!/bin/sh
# Repo check: format (when ocamlformat is available), build, tests, lint,
# the smoke pass over every experiment, a second E16 smoke run for the
# replay check, and the artifact gate (bench/gate.ml).  The gate holds
# one declared table of every contract: E15-E21's bounds over the
# committed full-run BENCH_*.json artifacts, and the pinned E16 replay
# digests of both smoke runs.
# Usage: bin/check.sh  (or `make check`)
set -eu
cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed or no .ocamlformat)"
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== catenet-lint"
make --no-print-directory lint

echo "== bench smoke"
dune exec bench/main.exe -- --smoke --out=_smoke >/dev/null

# Replay determinism (the E16 contract at PR time, backed by the
# catenet-lint determinism pass): the smoke pass above is replay 1; a
# second process must draw the same fault schedule and the same
# packet-level run digest.  Any ambient input that slipped past the
# lint — wall clock, hash-table iteration order, an unseeded RNG —
# shows up in the gate as a digest that differs from the pin.
echo "== replay 2 (E16 smoke)"
rm -rf _replay2
dune exec bench/main.exe -- --smoke --only E16 --out=_replay2 >/dev/null

echo "== artifact gate"
dune exec bench/gate.exe
rm -rf _replay2

echo "check: OK"
