#!/usr/bin/env bash
# Documentation lint, wired into ctest as `check_docs`:
#   1. every row of the telemetry catalog (src/common/telemetry_names.h)
#      is documented in its kind's section of docs/observability.md (Span
#      taxonomy, Counters, Gauges, Histograms or Flight recorder) and in
#      its owning guide, as `name`, or as `name.<placeholder>` for a
#      family of series;
#   2. relative Markdown links in README.md and docs/*.md resolve;
#   3. every `src/...` path mentioned in the docs exists (supports
#      {h,cc}-style brace lists);
#   4. docs/benchmarks.md covers every bench/bench_*.cc binary;
#   5. the seven guides (api, architecture, observability, benchmarks,
#      resilience, caching, replanning) and README.md cross-link each
#      other;
#   6. docs/observability.md's "HTTP endpoint" route table covers every
#      route defined in src/serving/http_endpoint.cc;
#   7. docs/api.md covers the scheduler (src/core/runtime/fair_scheduler).
#
# Usage: scripts/check_docs.sh [repo_root]
#        scripts/check_docs.sh --selftest [repo_root]
#
# `--selftest` proves stage 1 can fail: it lints a temporary copy of the
# tracked tree twice, once as is (must pass) and once with
# `llm.retry.attempts` deleted from docs/resilience.md and one gauge row
# moved under Counters (must report exactly those two failures). Wired
# into ctest as `check_docs_selftest`.
set -u

if [[ "${1:-}" == "--selftest" ]]; then
  root="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
  tmp=$(mktemp -d) || exit 1
  trap 'rm -rf "$tmp"' EXIT
  # The tracked tree, plus files not yet added; minus deleted ones.
  (cd "$root" && git ls-files -z --cached --others --exclude-standard |
      while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"
      done | xargs -0 cp --parents -t "$tmp") || exit 1
  if ! "$0" "$tmp" >/dev/null 2>&1; then
    echo "check_docs: selftest: the unmutated tree fails the lint" >&2
    exit 1
  fi
  sed -i '/`llm\.retry\.attempts`/d' "$tmp/docs/resilience.md"
  obs="$tmp/docs/observability.md"
  row=$(grep -F '| `serve.inflight` |' "$obs")
  grep -vF "$row" "$obs" | ROW="$row" awk '{ print }
      /^### Counters/ { c = 1 } c && /^\|---/ { print ENVIRON["ROW"]; c = 0 }' \
      > "$tmp/moved.md" && mv "$tmp/moved.md" "$obs"
  expected=$(printf 'check_docs: %s\n' \
      'Counter `llm.retry.attempts` is not in docs/resilience.md' \
      'Gauge `serve.inflight` is not under Gauges in docs/observability.md')
  got=$("$0" "$tmp" 2>&1 >/dev/null | grep -v 'FAILED with' | sort)
  if [[ "$got" != "$expected" ]]; then
    printf 'check_docs: selftest: the mutated tree reported:\n%s\n' "$got" >&2
    exit 1
  fi
  echo "check_docs: selftest OK (both mutations caught, nothing else)"
  exit 0
fi

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 1

failures=0
fail() {
  echo "check_docs: $*" >&2
  failures=$((failures + 1))
}

DOC_FILES=(README.md docs/*.md)

# --- 1. telemetry catalog rows are documented -----------------------------
OBS=docs/observability.md
CATALOG=src/common/telemetry_names.h
declare -A HEADING=([Span]="## Span taxonomy" [Counter]="### Counters"
                    [Gauge]="### Gauges" [Histogram]="### Histograms"
                    [Event]="## Flight recorder")
if [[ ! -f "$OBS" ]]; then
  fail "$OBS is missing"
else
  # The text of each kind's section: from its heading to the next one.
  declare -A SECTION
  for kind in "${!HEADING[@]}"; do
    SECTION[$kind]=$(awk -v h="${HEADING[$kind]}" \
        '$0 == h { on = 1; next } on && /^#/ { exit } on' "$OBS")
    [[ -n "${SECTION[$kind]}" ]] ||
        fail "$OBS has no \"${HEADING[$kind]}\" section"
  done
  # One `kind|name|family|guide` line per row; joining lines first keeps
  # rows that wrap in scope.
  str=' *"\([^"]*\)",'
  rows=$(tr '\n\\' '  ' < "$CATALOG" |
      grep -o 'X([A-Za-z]*, *k[A-Za-z0-9]*, *"[^"]*", *"[^"]*", *"[^"]*",' |
      sed "s/X(\([A-Za-z]*\), *k[A-Za-z0-9]*,$str$str$str/\1|\2|\3|\4/")
  [[ -n "$rows" ]] || fail "no rows extracted from $CATALOG"
  while IFS='|' read -r kind name family guide; do
    doc_name="\`$name\`"
    [[ -z "$family" ]] || doc_name="\`$name.$family\`"
    if [[ -z "${HEADING[$kind]:-}" ]]; then
      fail "$CATALOG: '$name' has unknown kind '$kind'"
    elif ! grep -qF "$doc_name" <<< "${SECTION[$kind]}"; then
      fail "$kind $doc_name is not under ${HEADING[$kind]##*# } in $OBS"
    fi
    if [[ -n "$guide" ]] && ! grep -qF "$doc_name" "docs/$guide.md"; then
      fail "$kind $doc_name is not in docs/$guide.md"
    fi
  done <<< "$rows"
fi

# --- 2. relative markdown links resolve ------------------------------------
for doc in "${DOC_FILES[@]}"; do
  [[ -f "$doc" ]] || continue
  dir=$(dirname "$doc")
  # Extract (target) parts of [text](target) links.
  links=$(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
  while IFS= read -r link; do
    [[ -n "$link" ]] || continue
    case "$link" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    target="${link%%#*}"  # drop anchors
    [[ -n "$target" ]] || continue
    if [[ ! -e "$dir/$target" && ! -e "$target" ]]; then
      fail "$doc: broken link '$link'"
    fi
  done <<< "$links"
done

# --- 3. src/ paths mentioned in docs exist ---------------------------------
expand_braces() {
  # Expands one {a,b,...} group per path; plain paths pass through.
  local path="$1"
  if [[ "$path" == *"{"* && "$path" == *"}"* ]]; then
    local pre="${path%%\{*}" rest="${path#*\{}"
    local body="${rest%%\}*}" post="${rest#*\}}"
    local part
    IFS=',' read -ra parts <<< "$body"
    for part in "${parts[@]}"; do
      expand_braces "$pre$part$post"
    done
  else
    echo "$path"
  fi
}

for doc in "${DOC_FILES[@]}"; do
  [[ -f "$doc" ]] || continue
  paths=$(grep -o 'src/[A-Za-z0-9_./{},-]*' "$doc" | sed 's/[.,]$//' | sort -u)
  while IFS= read -r path; do
    [[ -n "$path" ]] || continue
    while IFS= read -r expanded; do
      # Directory references ("src/core/logical") and files both count.
      if [[ ! -e "$expanded" ]]; then
        fail "$doc: referenced path '$expanded' does not exist"
      fi
    done < <(expand_braces "$path")
  done <<< "$paths"
done

# --- 4. benchmarks.md covers every bench binary ----------------------------
BENCH_DOC=docs/benchmarks.md
if [[ ! -f "$BENCH_DOC" ]]; then
  fail "$BENCH_DOC is missing"
else
  for src in bench/bench_*.cc; do
    bin=$(basename "$src" .cc)
    if ! grep -q "\`$bin\`" "$BENCH_DOC"; then
      fail "$BENCH_DOC does not cover $bin"
    fi
  done
fi

# --- 5. the guides cross-link each other -----------------------------------
GUIDES=(docs/api.md docs/architecture.md docs/observability.md
        docs/benchmarks.md docs/resilience.md docs/caching.md
        docs/replanning.md README.md)
for doc in "${GUIDES[@]}"; do
  [[ -f "$doc" ]] || { fail "$doc is missing"; continue; }
  for other in "${GUIDES[@]}"; do
    [[ "$doc" == "$other" ]] && continue
    base=$(basename "$other")
    if ! grep -qF "$base" "$doc"; then
      fail "$doc does not cross-link $base"
    fi
  done
done

# --- 6. observability.md covers the HTTP routes ---------------------------
ENDPOINT_SRC=src/serving/http_endpoint.cc
if [[ ! -f "$ENDPOINT_SRC" ]]; then
  fail "$ENDPOINT_SRC is missing"
else
  routes=$(grep -o 'const char kRoute[A-Za-z0-9]*\[\] *= *"[^"]*"' \
      "$ENDPOINT_SRC" | sed 's/.*"\([^"]*\)"/\1/')
  [[ -n "$routes" ]] || fail "no kRoute* definitions in $ENDPOINT_SRC"
  while IFS= read -r route; do
    [[ -n "$route" ]] || continue
    if ! grep -qF "\`$route\`" "$OBS"; then
      fail "HTTP route '$route' is not in $OBS's route table"
    fi
  done <<< "$routes"
fi

# --- 7. scheduler guide coverage ------------------------------------------
API_DOC=docs/api.md
if [[ ! -f "$API_DOC" ]]; then
  fail "$API_DOC is missing"
else
  grep -q 'src/core/runtime/fair_scheduler' "$API_DOC" ||
      fail "$API_DOC does not cover src/core/runtime/fair_scheduler"
fi

if [[ $failures -gt 0 ]]; then
  echo "check_docs: FAILED with $failures error(s)" >&2
  exit 1
fi
echo "check_docs: OK"
