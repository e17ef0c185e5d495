#!/usr/bin/env bash
# Which workspace functions does a linked binary keep?
#
# Builds every target of the workspace, and the benchmark under benchmark/,
# unoptimised into target/reach/build, linking each binary with a linker map.
# The linker keeps a function's section only if an entry point reaches it, so
# each function of a crate under crates/ falls into one of three classes:
#
#   product.txt    kept by a binary that does not link libtest: the benchmark,
#                  hs-worker, validate_trace, the bench targets, the examples
#   test_only.txt  kept only by test binaries
#   unreached.txt  kept by no binary
#
# Writes the three lists under target/reach/ and prints their counts, then
# how many of the public HStreams methods fall in each class (a method that
# is in neither list counts as unreached). The counts are a report; one line
# is a gate. The script exits 1 when a public HStreams method is unreached,
# or is test-only and not one of these two:
#
#   buffer_destroy  a stream that runs forever must free its buffers; the
#                   apps and the benchmark free theirs by dropping the runtime
#   event_wait_any  the paper waits on "one or all" events; the apps wait on
#                   all of them
# Run from anywhere: scripts/reach.sh (no flags; offline; about two minutes
# on two cores). Names are demangled with c++filt, hashes stripped and
# generic instances collapsed to their path; closures are left out.
#
# Artefacts: derived impls and trait methods a bound or a lint requires are
# not deletion targets; a tuple-variant constructor shows up only where it is
# used as a function value; #[inline(always)] functions are inlined even at
# opt-level 0 (check them by hand); a generic or #[inline] function is in no
# rlib, so it is never in unreached.txt.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/target/reach
maps=$out/maps
rm -rf "$out"
mkdir -p "$maps"

# One map per linked output, named after it: a bare `-C link-arg=-Map=..`
# would have every link overwrite the same file. rustc picks the linker's
# flavour from its file name, so the wrapper is called cc.
mkdir -p "$out/link"
cat >"$out/link/cc" <<WRAPPER
#!/bin/sh
prev= output=
for arg in "\$@"; do
    [ "\$prev" = -o ] && output=\$arg
    prev=\$arg
done
exec cc "\$@" "-Wl,-Map=$maps/\${output##*/}.map"
WRAPPER
chmod +x "$out/link/cc"

host=$(rustc -vV | sed -n 's/^host: //p')
export "CARGO_TARGET_$(echo "$host" | tr 'a-z-' 'A-Z_')_LINKER=$out/link/cc"
export CARGO_TARGET_DIR=$out/build
# Every crate at opt-level 0, hs-linalg included, so nothing is inlined away.
build=(cargo build --offline --locked --quiet
    --config 'profile.dev.package.hs-linalg.opt-level=0')
"${build[@]}" --manifest-path "$root/Cargo.toml" --workspace --all-targets
"${build[@]}" --manifest-path "$root/benchmark/Cargo.toml" --bins

# Crate names under crates/, as they prefix a demangled path.
crates=$(for toml in "$root"/crates/*/Cargo.toml; do
    awk -F'"' '/^name = /{print $2; exit}' "$toml"
done | tr - _ | paste -sd'|')

# Mangled names on stdin -> one workspace function path per line: a path
# under a crate of crates/, or an impl of one of their traits for a primitive
# or standard type. Unit-test bodies (a `tests` module) and libtest's `main`
# are test code, not functions under test.
paths() {
    c++filt | sed 's/::h[0-9a-f]\{16\}$//' |
        { grep -E "^<?($crates)::|^<([^ :]+|(core|alloc|std)::[^ ]*) as ($crates)::" || true; } |
        { grep -vE "\{\{|(^|::)tests::|^($crates)::main$" || true; } | sort -u
}

symbols_in_maps() {
    # lld lists each kept input section; rustc puts every function in its own
    # `.text.<mangled name>` section.
    [ $# -eq 0 ] && return
    grep -ho '(\.text\.[^)]*)' "$@" | sed 's/^(\.text\.\(unlikely\.\)\{0,1\}//; s/)$//' | paths
}

product=() tests=()
for map in "$maps"/*.map; do
    case ${map##*/} in build_script_* | *.so.map) continue ;; esac
    if grep -q '/libtest-[0-9a-f]*\.rlib' "$map"; then tests+=("$map"); else product+=("$map"); fi
done

symbols_in_maps "${product[@]}" >"$out/product.txt"
symbols_in_maps "${tests[@]}" | comm -23 - "$out/product.txt" >"$out/test_only.txt"
for lib in $(echo "$crates" | tr '|' ' '); do
    ls "$out"/build/debug/deps/lib"$lib"-*.rlib 2>/dev/null || true
done | xargs nm --defined-only 2>/dev/null | awk '$2 ~ /^[TtWw]$/ {print $3}' | paths |
    comm -23 - "$out/product.txt" | comm -23 - "$out/test_only.txt" >"$out/unreached.txt"

for class in product test_only unreached; do
    printf '%-10s %6d\n' "$class" "$(wc -l <"$out/$class.txt")"
done

# The public API's size by class: the `pub fn`s of `HStreams` as listed in
# `PINNED` of crates/core/tests/api_surface.rs, which that test holds equal
# to the source. A method of an `impl` block in a submodule demangles as
# `hstreams_core::<module>::<impl hstreams_core::HStreams>::<name>`.
methods=$(awk '
    /^const PINNED: / { inside = 1; next }
    inside && /^\];/ { exit }
    inside { gsub(/[ ",]/, ""); print }
' "$root/crates/core/tests/api_surface.rs")
declare -A per_class=([product]=0 [test_only]=0 [unreached]=0)
offenders=()
for m in $methods; do
    class=unreached
    for c in product test_only; do
        if grep -qE "^hstreams_core::(HStreams|[a-z_]+::<impl hstreams_core::HStreams>)::$m\$" "$out/$c.txt"; then
            class=$c
            break
        fi
    done
    per_class[$class]=$((per_class[$class] + 1))
    case $class:$m in
    product:* | test_only:buffer_destroy | test_only:event_wait_any) ;;
    *) offenders+=("$m ($class)") ;;
    esac
done
printf 'HStreams pub fns %d: product %d / test_only %d / unreached %d\n' \
    "$(echo "$methods" | wc -w)" "${per_class[product]}" "${per_class[test_only]}" "${per_class[unreached]}"
if [ ${#offenders[@]} -gt 0 ]; then
    printf 'HStreams pub fn with no product caller: %s\n' "${offenders[@]}" >&2
    exit 1
fi
