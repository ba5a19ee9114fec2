#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer gate: builds the asan preset
# and runs the full ctest suite under it.  Any heap/stack overflow,
# use-after-free, leak, undefined behaviour (signed overflow, misaligned or
# out-of-range access, bad enum load) or libstdc++ assertion (container
# index out of range) aborts the offending test.  The right gate for changes
# that move scratch buffers and indices around.
#
#   scripts/asan.sh            # whole suite
#   scripts/asan.sh -L scale   # extra arguments go to ctest
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# The preset builds with -fno-sanitize-recover=undefined, so undefined
# behaviour is a failure, not a warning; stack traces make it actionable.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" "$@"
