.PHONY: all build test check lint bench smoke clean

all: build

build:
	dune build

test:
	dune runtest

check:
	bin/check.sh

# Static analysis: wire layouts, fast-path allocation freedom,
# observability totality, comparison and match hygiene (bin/lint/).
lint:
	dune build bin/lint/catenet_lint.exe
	./_build/default/bin/lint/catenet_lint.exe --allow bin/lint/lint.allow \
	  $$(find lib -name '*.ml' | sort) \
	  $$(find _build/default/lib -name '*.cmt' | grep -v '__\.cmt$$' | sort)
	./_build/default/bin/lint/catenet_lint.exe --rng-only \
	  $$(find bench examples -name '*.ml' | sort)

bench:
	dune exec bench/main.exe

# Scaled-down pass over the experiments: proves the benches still build
# and run in seconds, without overwriting the real BENCH_*.json numbers.
# `make smoke` runs every experiment; `make smoke ONLY=E16` runs one (any
# comma-separated list of E*/A* ids from `bench/main.exe --list`).
# Smoke-scale numbers are not the gated contract: the artifact gate
# (bench/gate.ml, run by bin/check.sh) reads the committed full-run
# BENCH_*.json artifacts, and of _smoke/ only E16's replay digests.
smoke:
	dune exec bench/main.exe -- --smoke $(if $(ONLY),--only $(ONLY)) --out=_smoke

clean:
	dune clean
