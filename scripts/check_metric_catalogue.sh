#!/usr/bin/env bash
# Metric-catalogue gate (CI: the build-and-test job; locally just run it).
# Fails when the dbsa_* metric families registered in src/ differ from
# the families that docs/operations.md's metric catalogue lists. An
# operator reads the catalogue to know what a scrape holds, so a family
# missing from it is invisible and a row with no family is a lie.
#
#   src/       every "dbsa_<name>" string literal in a .cc or .h file is
#              a registered family (labels are appended at run time, so
#              the literal is the family name);
#   catalogue  the first backticked cell of each row of the table under
#              "### The metric catalogue", with {label=...} selectors
#              stripped and brace alternatives expanded:
#              `dbsa_x_{a,b}_total{shard=...}` lists dbsa_x_a_total and
#              dbsa_x_b_total.
#
# Pure bash + grep/sed: no python dependency, runs anywhere CI does.
#
# Usage: check_metric_catalogue.sh [root]   (root defaults to the repo;
# the lint selftest points it at a fixture tree whose catalogue misses
# one family and lists one that is not registered, and expects exit 1).
set -euo pipefail
cd "$(dirname "$0")/.."
cd "${1:-.}"

fail=0
err() {
  echo "check_metric_catalogue: $*" >&2
  fail=1
}

DOC=docs/operations.md
HEADING='### The metric catalogue'

# Prints every name a catalogue cell lists: the first brace group is
# expanded into its alternatives, recursively.
expand() {
  local name=$1
  if [[ "$name" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
    local pre=${BASH_REMATCH[1]} post=${BASH_REMATCH[3]} alt
    local -a alts
    IFS=, read -r -a alts <<<"${BASH_REMATCH[2]}"
    for alt in "${alts[@]}"; do expand "$pre$alt$post"; done
  else
    echo "$name"
  fi
}

registered=$(grep -rhoE --include='*.cc' --include='*.h' '"dbsa_[a-z0-9_]+' src \
               | sed 's/^"//' | sort -u || true)
if [[ -z "$registered" ]]; then
  err "no \"dbsa_...\" literal under src/ — the extraction is dead"
fi

if ! grep -qxF "$HEADING" "$DOC"; then
  err "$DOC has no '$HEADING' section"
fi
cells=$(awk -v heading="$HEADING" '
          $0 == heading { in_table = 1; next }
          in_table && /^#/ { exit }
          in_table' "$DOC" \
          | sed -n 's/^| `\(dbsa_[^`]*\)`.*/\1/p' \
          | sed -E 's/\{[a-z_]+=[^}]*\}//g')
catalogued=$(while IFS= read -r cell; do
               if [[ -n "$cell" ]]; then expand "$cell"; fi
             done <<<"$cells" | sort -u)
if [[ -z "$catalogued" ]]; then
  err "$DOC's catalogue lists no dbsa_ family"
fi

while IFS= read -r name; do
  if [[ -n "$name" ]]; then err "$name is registered in src/ but has no row in $DOC"; fi
done < <(comm -23 <(echo "$registered") <(echo "$catalogued"))
while IFS= read -r name; do
  if [[ -n "$name" ]]; then err "$name has a row in $DOC but nothing in src/ registers it"; fi
done < <(comm -13 <(echo "$registered") <(echo "$catalogued"))

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_metric_catalogue: $(wc -l <<<"$registered") families, catalogue matches src/"
