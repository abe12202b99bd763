#!/usr/bin/env bash
# Runs two full sets of benchmark runs and checks that they agree within the
# bounds of BENCHMARK.json; see agree.py for what is printed and the options.
set -euo pipefail
exec python3 "$(dirname "${BASH_SOURCE[0]}")/agree.py" "$@"
