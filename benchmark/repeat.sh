#!/bin/sh
# Determinism check: every workload twice on the same build, untraced and
# traced. Fails unless every exact metric (sim_s, counts, regret, model
# sizes) is bit-identical and every host-clock end-to-end metric agrees
# within its bound; prints both sets side by side.
#
#   benchmark/repeat.sh            # full measuring time
#   benchmark/repeat.sh --quick    # six rounds per run: exact metrics only
set -eu
cd "$(dirname "$0")"
exec cargo run --release --quiet --offline -- --repeat "$@"
