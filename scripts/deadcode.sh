#!/usr/bin/env bash
# Fails when a package-level function or method of this module is linked
# into no binary (cmd/, examples/, perfbench) and scripts/deadcode.allow
# does not name it. Prints every unlinked name with its tag:
#   scripts/deadcode.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run scripts/deadcode.go scripts/deadcode.allow
