#!/usr/bin/env sh
# Suppression budget: the number of htlint allow()/allow-file() sites
# is ratcheted. Growing it requires a deliberate edit to
# tools/htlint/suppression-budget.txt in the same change, so new
# suppressions show up in review instead of accreting silently.
#
# Usage: check_suppression_budget.sh <htlint-binary> <repo-root>
set -eu

htlint=$1
root=$2
budget_file=$root/tools/htlint/suppression-budget.txt

budget=$(tr -cd '0-9' < "$budget_file")
actual=$(cd "$root" && "$htlint" --jobs=4 --list-suppressions \
             src bench tools tests examples |
         sed -n 's/^htlint: \([0-9][0-9]*\) suppression(s).*/\1/p')

if [ -z "$actual" ]; then
    echo "check_suppression_budget: could not parse htlint output" >&2
    exit 2
fi

if [ "$actual" -gt "$budget" ]; then
    echo "htlint suppressions grew: $actual site(s), budget is" \
         "$budget. Fix the finding instead, or justify the new" \
         "suppression and bump tools/htlint/suppression-budget.txt" \
         "in the same change." >&2
    exit 1
fi

if [ "$actual" -lt "$budget" ]; then
    echo "note: only $actual suppression site(s) left (budget" \
         "$budget) -- ratchet tools/htlint/suppression-budget.txt" \
         "down to lock in the progress."
fi

echo "suppression budget ok: $actual/$budget"
