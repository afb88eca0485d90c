#!/usr/bin/env bash
# Docs cross-reference check, three passes:
#
#   1. Markdown links: fails if any relative [text](target) link in the
#      root-level markdown files (README.md, ROADMAP.md, ...) or
#      docs/*.md points at a file that does not exist.
#   2. Source-path references: fails if a backtick-quoted repo path in
#      docs/*.md or README.md (`src/...`, `tests/...`, `tools/...`,
#      `bench/...`, `docs/...`, `examples/...`, or a bare
#      `core/...`-style path under src/rl0/) names a file that does not
#      exist — stale references are how architecture docs rot.
#   3. Doc citations in code: fails if a `NAME.md` (or `dir/NAME.md`)
#      mentioned anywhere in src/, tests/ or bench/ resolves to no file,
#      relative to the repo root or docs/.
#
# Run from anywhere; CI runs it as its own step (see
# .github/workflows/ci.yml).
set -u
cd "$(dirname "$0")/.."

status=0
for f in *.md docs/*.md; do
  [ -e "$f" ] || continue
  dir="$(dirname "$f")"
  # Extract the (target) half of every [text](target) link.
  while IFS= read -r target; do
    target="${target%%#*}"          # drop in-page anchors
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;  # external links
    esac
    if [ ! -e "$dir/$target" ]; then
      echo "BROKEN LINK: $f -> $target" >&2
      status=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//')
done

# Pass 2: backtick-quoted source paths in the docs. A reference resolves
# if it exists relative to the repo root or under src/rl0/ (the docs
# abbreviate `core/foo.h` for `src/rl0/core/foo.h`). `a/b.{h,cc}` pairs
# are expanded. Only multi-segment paths with a file extension are
# checked — prose like `--window` or `jq` never matches.
for f in README.md docs/*.md; do
  [ -e "$f" ] || continue
  while IFS= read -r ref; do
    [ -z "$ref" ] && continue
    # Expand `path.{h,cc}` into both members.
    expanded="$ref"
    if printf '%s' "$ref" | grep -qE '\.\{[a-z,]+\}$'; then
      base="${ref%%.\{*}"
      exts="$(printf '%s' "$ref" | sed -e 's/^.*\.{//' -e 's/}$//' \
              | tr ',' ' ')"
      expanded=""
      for e in $exts; do expanded="$expanded $base.$e"; done
    fi
    for path in $expanded; do
      if [ ! -e "$path" ] && [ ! -e "src/rl0/$path" ]; then
        echo "STALE SOURCE REFERENCE: $f -> $path" >&2
        status=1
      fi
    done
  done < <(grep -oE '`[A-Za-z0-9_./{},-]+`' "$f" | tr -d '`' \
           | grep -E '^[A-Za-z0-9_-]+(/[A-Za-z0-9_.{},-]+)+$' \
           | grep -E '\.(h|cc|cpp|md|sh|txt|yml|json)(\{[a-z,]+\})?$|\.\{[a-z,]+\}$' \
           | sort -u)
done

# Pass 3: markdown files cited from code comments and strings.
while IFS= read -r hit; do
  file="${hit%%:*}"
  ref="${hit#*:}"
  if [ ! -e "$ref" ] && [ ! -e "docs/$ref" ]; then
    echo "DANGLING DOC REFERENCE: $file -> $ref" >&2
    status=1
  fi
done < <(grep -roE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' src tests bench \
         | sort -u)

if [ "$status" -ne 0 ]; then
  echo "docs link check FAILED" >&2
else
  echo "docs link check OK"
fi
exit "$status"
