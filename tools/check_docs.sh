#!/bin/sh
# Documentation consistency checks, run by the CI docs job and the
# docs_check ctest entry:
#   1. every relative markdown link in *.md / docs/*.md resolves to a file
#      or directory in the repo;
#   2. every subcommand dispatched by tools/whyq_cli.cc appears in the
#      usage comment at the top of that file AND in README.md;
#   3. every --flag the CLI parses appears in README.md (and vice versa:
#      every --flag README claims must be parsed by the CLI);
#   4. the on-disk format docs stay honest: every `Struct.field` row of
#      a field-index appendix and every k-constant of the format's prefix
#      it cites must literally exist in the header that declares it —
#      docs/IMAGE_FORMAT.md against src/common/image.h (kImage*, kFnv*),
#      docs/SNAPSHOT_FORMAT.md against src/graph/snapshot.h (kSnapshot*),
#      docs/PLAN_FORMAT.md against src/service/plan.h (kPlan*); the header
#      is each format's single source of truth, so renames must update
#      the spec;
#   5. the update-batch text format stays honest: every op mnemonic the
#      parser in src/graph/graph_io.cc accepts must be documented in the
#      graph_io.h grammar comment AND in README.md, and vice versa — a
#      mnemonic README documents must be parsed;
#   6. every whyq-lint rule name emitted by tools/lint/lint.cc is
#      documented in docs/ARCHITECTURE.md — a new rule must land with its
#      rationale, or the docs job fails.
#   7. every backticked identifier in the Algorithms column of README's
#      question table is declared in a header under src/, so the table
#      cannot advertise an API that does not exist.
# Pure grep/sed — no dependencies beyond POSIX sh.
set -u

cd "$(dirname "$0")/.." || exit 1
fail=0

err() {
  echo "check_docs: $1" >&2
  fail=1
}

# --- 1. relative markdown links -------------------------------------------
md_files="$(ls ./*.md 2>/dev/null; ls docs/*.md 2>/dev/null)"
for f in $md_files; do
  case "$f" in
    # Scraped reference material (arXiv extracts) keeps its original
    # image/figure links; only repo-authored docs must resolve.
    ./PAPERS.md|./SNIPPETS.md) continue ;;
  esac
  dir=$(dirname "$f")
  # Extract (text](target) pairs; keep the target, drop URLs and anchors.
  grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//' | while read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "check_docs: $f: broken relative link '$target'" >&2
      echo broken > .check_docs_failed
    fi
  done
done
if [ -f .check_docs_failed ]; then
  rm -f .check_docs_failed
  fail=1
fi

# --- 2. CLI subcommands documented ----------------------------------------
cli=tools/whyq_cli.cc
subcommands=$(sed -n 's/^  if (cmd == "\([a-z0-9-]*\)").*/\1/p' "$cli")
[ -n "$subcommands" ] || err "no subcommands extracted from $cli"
for cmd in $subcommands; do
  grep -q "whyq_cli $cmd" "$cli" ||
    err "$cli: subcommand '$cmd' missing from the usage comment"
  grep -q "$cmd" README.md ||
    err "README.md: subcommand '$cmd' undocumented"
done

# --- 3. CLI flags <-> README ----------------------------------------------
cli_flags=$(sed -n 's/.*value_of("\(--[a-z-]*\)").*/\1/p' "$cli" | sort -u)
[ -n "$cli_flags" ] || err "no flags extracted from $cli"
for flag in $cli_flags; do
  grep -q -- "\\$flag" README.md ||
    err "README.md: flag '$flag' undocumented"
done
readme_flags=$(grep -o -- '--[a-z][a-z-]*=' README.md | sed 's/=$//' | sort -u)
for flag in $readme_flags; do
  echo "$cli_flags" | grep -qx -- "$flag" ||
    err "README.md documents '$flag' but $cli does not parse it"
done

# --- 4. format docs <-> format headers -------------------------------------
check_spec() {  # spec header constant-regex
  spec=$1 hdr=$2
  if [ ! -f "$spec" ] || [ ! -f "$hdr" ]; then
    err "missing $spec or $hdr"
    return
  fi
  fields=$(sed -n '/^## Appendix: field index/,$p' "$spec" |
           grep -o '`[A-Za-z]*\.[a-z_]*`' | tr -d '\140' | sort -u)
  [ -n "$fields" ] ||
    err "$spec: no Struct.field entries found in the field-index appendix"
  for f in $fields; do
    struct=${f%%.*}
    field=${f#*.}
    grep -q "struct $struct" "$hdr" ||
      err "$spec: struct '$struct' does not exist in $hdr"
    grep -qw "$field" "$hdr" ||
      err "$spec: field '$f' — '$field' does not appear in $hdr"
  done
  for c in $(grep -oE "$3" "$spec" | sort -u); do
    grep -qw "$c" "$hdr" || err "$spec: constant '$c' does not exist in $hdr"
  done
}
check_spec docs/IMAGE_FORMAT.md src/common/image.h 'k(Image|Fnv)[A-Za-z]*'
check_spec docs/SNAPSHOT_FORMAT.md src/graph/snapshot.h 'kSnapshot[A-Za-z]*'
check_spec docs/PLAN_FORMAT.md src/service/plan.h 'kPlan[A-Za-z]*'

# --- 5. update-batch mnemonics <-> docs -----------------------------------
io_cc=src/graph/graph_io.cc
io_h=src/graph/graph_io.h
parsed=$(grep -o 'kind == "[A-Z][A-Z]"' "$io_cc" | grep -o '"[A-Z][A-Z]"' |
         tr -d '"' | sort -u)
[ -n "$parsed" ] || err "no update-op mnemonics extracted from $io_cc"
for op in $parsed; do
  grep -q "^///   $op " "$io_h" ||
    err "$io_h: update op '$op' missing from the grammar comment"
  grep -q "^$op " README.md ||
    err "README.md: update op '$op' undocumented"
done
# README's fenced grammar lines (two capitals at column 0) must be parsed.
for op in $(grep -o '^[A-Z][A-Z] ' README.md | tr -d ' ' | sort -u); do
  echo "$parsed" | grep -qx "$op" ||
    err "README.md documents update op '$op' but $io_cc does not parse it"
done

# --- 6. whyq-lint rules <-> ARCHITECTURE.md -------------------------------
lint_h=tools/lint/lint.h
lint_cc=tools/lint/lint.cc
arch=docs/ARCHITECTURE.md
# Rule names are the first word of each catalog entry in lint.h (three
# spaces of comment indent; continuation lines are indented deeper).
rules=$(sed -n 's|^//   \([a-z][a-z-]*\) .*|\1|p' "$lint_h" | sort -u)
[ -n "$rules" ] || err "no rule names extracted from the $lint_h catalog"
for r in $rules; do
  grep -q "\*\*$r\*\*" "$arch" ||
    err "$arch: whyq-lint rule '$r' undocumented (add a **$r** entry)"
done
# Every rule id lint.cc emits (the quoted hyphenated tokens) must be in
# the lint.h catalog, and therefore documented above — a rule cannot land
# without its rationale.
for r in $(grep -o '"[a-z][a-z]*-[a-z-]*"' "$lint_cc" | tr -d '"' | sort -u); do
  echo "$rules" | grep -qx "$r" ||
    err "$lint_h: rule '$r' emitted by $lint_cc missing from the catalog"
done

# --- 7. README question table <-> declared API ----------------------------
# The Algorithms column is the last cell of each row after the table's
# "| Question |" header; a declaration is the name followed by '('.
algos=$(sed -n '/^| Question |/,/^$/s/.*| *\([^|]*\) |$/\1/p' README.md |
        grep -o '`[A-Za-z_][A-Za-z0-9_]*`' | tr -d '\140' | sort -u)
[ -n "$algos" ] || err "no algorithms extracted from README.md's question table"
headers=$(find src -name '*.h')
for a in $algos; do
  # shellcheck disable=SC2086
  grep -q "[ *&]$a(" $headers ||
    err "README.md: question-table algorithm '$a' is declared in no src/ header"
done

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK (links, subcommands, flags, format specs, update ops, lint rules, question table in sync)"
fi
exit "$fail"
