#!/usr/bin/env bash
# Documentation lint, wired into ctest as `check_docs`:
#   1. every span/metric/accuracy/serve-event name in
#      src/common/telemetry_names.h is documented in
#      docs/observability.md;
#   2. relative Markdown links in README.md and docs/*.md resolve;
#   3. every `src/...` path mentioned in the docs exists (supports
#      {h,cc}-style brace lists);
#   4. docs/benchmarks.md covers every bench/bench_*.cc binary;
#   5. docs/resilience.md's telemetry table covers every llm.fault.* /
#      llm.retry.* / llm.hedge.* / breaker.* name;
#   6. the seven guides (api, architecture, observability, benchmarks,
#      resilience, caching, replanning) and README.md cross-link each
#      other;
#   7. docs/caching.md's telemetry table covers every llm.cache.* name;
#   8. docs/replanning.md's telemetry table covers every
#      plan.reoptimize.* name plus the exec.replan span;
#   9. docs/observability.md's "HTTP endpoint" route table covers every
#      route defined in src/serving/http_endpoint.cc, and the serve.slo.*
#      / tenant.* serving telemetry is documented there;
#  10. docs/api.md covers the scheduler (src/core/runtime/fair_scheduler
#      and its shed / tenant_reject event kinds).
#
# Usage: scripts/check_docs.sh [repo_root]
set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 1

failures=0
fail() {
  echo "check_docs: $*" >&2
  failures=$((failures + 1))
}

DOC_FILES=(README.md docs/*.md)

# --- 1. telemetry names are documented -------------------------------------
OBS=docs/observability.md
if [[ ! -f "$OBS" ]]; then
  fail "$OBS is missing"
else
  # Every quoted string literal in the catalog header is a span, metric,
  # accuracy-ledger, or flight-recorder event name. Joining lines first
  # keeps declarations that wrap onto a continuation line in scope.
  names=$(tr '\n' ' ' < src/common/telemetry_names.h |
      grep -o 'inline constexpr char k[A-Za-z0-9]*\[\] *= *"[^"]*"' |
      sed 's/.*"\([^"]*\)"/\1/')
  [[ -n "$names" ]] || fail "no names extracted from telemetry_names.h"
  while IFS= read -r name; do
    [[ -n "$name" ]] || continue
    # Accept either the exact name or a parameterized form like
    # `llm.calls.<type>` for per-PromptType counter prefixes.
    if ! grep -qF "\`$name\`" "$OBS" && ! grep -qF "\`$name." "$OBS"; then
      fail "telemetry name '$name' is not documented in $OBS"
    fi
  done <<< "$names"
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

# --- 5. resilience.md covers the resilience telemetry names ----------------
RES_DOC=docs/resilience.md
if [[ ! -f "$RES_DOC" ]]; then
  fail "$RES_DOC is missing"
else
  res_names=$(tr '\n' ' ' < src/common/telemetry_names.h |
      grep -o 'inline constexpr char k[A-Za-z0-9]*\[\] *= *"[^"]*"' |
      sed 's/.*"\([^"]*\)"/\1/' |
      grep -E '^(llm\.fault\.|llm\.retry\.|llm\.hedge\.|breaker\.)')
  [[ -n "$res_names" ]] || fail "no resilience names in telemetry_names.h"
  while IFS= read -r name; do
    [[ -n "$name" ]] || continue
    if ! grep -qF "\`$name\`" "$RES_DOC" && ! grep -qF "\`$name." "$RES_DOC"
    then
      fail "resilience telemetry name '$name' is not in $RES_DOC"
    fi
  done <<< "$res_names"
fi

# --- 6. the guides cross-link each other -----------------------------------
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

# --- 7. caching.md covers the cache telemetry names ------------------------
CACHE_DOC=docs/caching.md
if [[ ! -f "$CACHE_DOC" ]]; then
  fail "$CACHE_DOC is missing"
else
  cache_names=$(tr '\n' ' ' < src/common/telemetry_names.h |
      grep -o 'inline constexpr char k[A-Za-z0-9]*\[\] *= *"[^"]*"' |
      sed 's/.*"\([^"]*\)"/\1/' |
      grep -E '^llm\.cache\.')
  [[ -n "$cache_names" ]] || fail "no llm.cache.* names in telemetry_names.h"
  while IFS= read -r name; do
    [[ -n "$name" ]] || continue
    if ! grep -qF "\`$name\`" "$CACHE_DOC"; then
      fail "cache telemetry name '$name' is not in $CACHE_DOC"
    fi
  done <<< "$cache_names"
fi

# --- 8. replanning.md covers the re-optimization telemetry names -----------
REPLAN_DOC=docs/replanning.md
if [[ ! -f "$REPLAN_DOC" ]]; then
  fail "$REPLAN_DOC is missing"
else
  replan_names=$(tr '\n' ' ' < src/common/telemetry_names.h |
      grep -o 'inline constexpr char k[A-Za-z0-9]*\[\] *= *"[^"]*"' |
      sed 's/.*"\([^"]*\)"/\1/' |
      grep -E '^(plan\.reoptimize\.|exec\.replan$)')
  [[ -n "$replan_names" ]] ||
      fail "no plan.reoptimize.* names in telemetry_names.h"
  while IFS= read -r name; do
    [[ -n "$name" ]] || continue
    if ! grep -qF "\`$name\`" "$REPLAN_DOC"; then
      fail "re-optimization telemetry name '$name' is not in $REPLAN_DOC"
    fi
  done <<< "$replan_names"
fi

# --- 9. observability.md covers the HTTP routes + serving SLO telemetry ----
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

  slo_names=$(tr '\n' ' ' < src/common/telemetry_names.h |
      grep -o 'inline constexpr char k[A-Za-z0-9]*\[\] *= *"[^"]*"' |
      sed 's/.*"\([^"]*\)"/\1/' |
      grep -E '^(serve\.slo\.|serve\.uptime_seconds$|tenant\.)')
  [[ -n "$slo_names" ]] ||
      fail "no serve.slo.*/tenant.* names in telemetry_names.h"
  while IFS= read -r name; do
    [[ -n "$name" ]] || continue
    if ! grep -qF "\`$name\`" "$OBS"; then
      fail "serving telemetry name '$name' is not in $OBS"
    fi
  done <<< "$slo_names"
fi

# --- 10. scheduler guide coverage -----------------------------------------
API_DOC=docs/api.md
if [[ ! -f "$API_DOC" ]]; then
  fail "$API_DOC is missing"
else
  grep -q 'src/core/runtime/fair_scheduler' "$API_DOC" ||
      fail "$API_DOC does not cover src/core/runtime/fair_scheduler"
  for kind in shed tenant_reject; do
    grep -qF "\`$kind\`" "$API_DOC" ||
        fail "$API_DOC does not mention the '$kind' event kind"
  done
fi

if [[ $failures -gt 0 ]]; then
  echo "check_docs: FAILED with $failures error(s)" >&2
  exit 1
fi
echo "check_docs: OK"
