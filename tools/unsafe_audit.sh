#!/usr/bin/env bash
# Audits the workspace's unsafe-code policy:
#
#   1. There is exactly one `unsafe` block in the workspace: the
#      `signal(2)` FFI call in `vt_par::install_sigint`, preceded (within
#      8 lines) by a `SAFETY:` comment explaining why its requirements
#      hold.
#   2. Every other crate carries `#![forbid(unsafe_code)]` in its lib
#      root, so a violation elsewhere already fails the build; checking
#      the attribute here catches a dropped forbid.
#
#   tools/unsafe_audit.sh      exits non-zero with a report on violation
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# -- 1. The only `unsafe` in code is install_sigint's block. -----------
# Comment lines and the forbid attribute mention the word; skip them.
sites=$(grep -rn --include='*.rs' -w 'unsafe' crates tests/src \
  | grep -v 'forbid(unsafe_code)' \
  | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' || true)
if [[ "$(grep -c . <<<"$sites")" -ne 1 || "$sites" != crates/par/src/lib.rs:*"unsafe {" ]]; then
  echo "unsafe_audit: expected exactly one \`unsafe {\` block, in crates/par/src/lib.rs; found:" >&2
  echo "${sites:-  (none)}" >&2
  fail=1
else
  line=${sites#crates/par/src/lib.rs:}
  line=${line%%:*}
  if ! awk -v site="$line" '
    /^(pub )?fn / { in_fn = $0 }   # top-level items only
    /SAFETY:/ { last_safety = NR }
    NR == site { ok = (in_fn ~ /fn install_sigint\(/ && last_safety && NR - last_safety <= 8) }
    END { exit !ok }
  ' crates/par/src/lib.rs; then
    echo "unsafe_audit: crates/par/src/lib.rs:$line: the unsafe block must be in install_sigint with a SAFETY: comment within 8 lines" >&2
    fail=1
  fi
fi

# -- 2. Every non-par lib root forbids unsafe code. --------------------
for lib in crates/*/src/lib.rs tests/src/lib.rs; do
  [[ "$lib" == crates/par/* ]] && continue
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
    echo "unsafe_audit: $lib is missing #![forbid(unsafe_code)]" >&2
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "unsafe_audit: FAILED" >&2
  exit 1
fi
echo "unsafe_audit: OK"
