#!/usr/bin/env bash
# reach.sh: the reachability gate.
#
# Builds every CLI and example with coverage instrumentation of the whole
# module, runs the documented workflows with GOCOVERDIR set, and compares
# the functions left at 0.0 % with docs/unreached.txt:
#
#   1. every `$ go run ./cmd/...` and `$ go run ./examples/...` line of
#      README.md's console blocks (minus the two kinds skipped below);
#   2. the CI gates and their negative controls, at their gate sizes;
#   3. a live asapd session that hits every route of queue.Handler.
#
# It fails if a function no workflow reaches is not on the list, and
# reports (without failing) a listed function that some run did reach,
# so a timing-dependent path cannot make the gate flap. A PR that adds
# code adds its workflow here or its line to docs/unreached.txt.
#
# Run from anywhere: bash scripts/reach.sh. Everything it writes lands
# under reach/ at the repository root. It takes no flags.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
rm -rf reach
mkdir -p reach/bin reach/covdata reach/run
export GOCOVERDIR=$root/reach/covdata
# A pinned code version lets every cached workflow cache, from a clean
# checkout or a dirty working copy alike, so both reach the same code.
export ASAP_CACHE_CODEVERSION=reach
bin=$root/reach/bin

section() { echo "== $* (${SECONDS}s)"; }

# expect CODE CMD...: run CMD, which must exit with CODE.
expect() {
	local want=$1 code=0
	shift
	"$@" || code=$?
	if [ "$code" -ne "$want" ]; then
		echo "reach: exit $code, want $want: $*" >&2
		exit 1
	fi
}

section build
go build -cover -coverpkg=asap/... -o "$bin/" ./cmd/... ./examples/...
cd reach/run

section 1. README console blocks
# Skipped, each for its reason:
#   -full            the paper-scale sweeps take minutes; the fullscale CI
#                    job runs them uninstrumented and cmps docs/.
#   asapd -addr      a foreground server; set 3 serves the same daemon and
#                    drives every route of it.
# `asapcrash recover` on the image the line before saves is refused as
# corrupt, which README documents as exit 3.
mkdir -p readme
n=0
while IFS= read -r line; do
	cmd=${line#\$ go run ./}
	case "$cmd" in
	*" -full"*) continue ;;
	"cmd/asapd -addr"*) continue ;;
	esac
	want=0
	case "$cmd" in
	"cmd/asapcrash recover "*) want=3 ;;
	esac
	cmd=${cmd#cmd/}
	cmd=${cmd#examples/}
	n=$((n + 1))
	echo "   [$n] $cmd"
	(cd readme && expect "$want" bash -c "\"$bin\"/$cmd" > "$n.out" 2> "$n.err")
done < <(grep -E '^\$ go run \./(cmd|examples)/' "$root/README.md")

section 2. gates and their negative controls
# The quick sweep: cold, warm from the cache, audit and chart modes.
"$bin/asapbench" -experiment all -parallel 2 -progress=false -cache-dir cache > all.txt
cmp all.txt "$root/docs/experiments-quickscale.txt"
"$bin/asapbench" -experiment all -parallel 2 -progress=false -cache-dir cache > /dev/null
"$bin/asapbench" -experiment fig1 -parallel 2 -progress=false -checkpoint-every 20000 -chart > /dev/null
"$bin/asapbench" -experiment profile -progress=false > /dev/null
# -progress draws only on a terminal; script(1) gives it one.
script -q -c "$bin/asapbench -experiment fig1 -parallel 2 -progress -json fig1.json" /dev/null > /dev/null

# The crash and torture gates, byte-compared with docs/.
"$bin/asapcrash" -seed 1 -points 28 > crash.txt
cmp crash.txt "$root/docs/crash-sweep-seed1.txt"
"$bin/asapcrash" -seed 1 -points 28 -workloads BN,BT,CT,EO,HM,Q,RB,SS,TPCC > crash-bench.txt
cmp crash-bench.txt "$root/docs/crash-sweep-bench-seed1.txt"
"$bin/asapcrash" torture -seed 1 -seeds 19 > torture.txt
cmp torture.txt "$root/docs/torture-sweep-seed1.txt"
ASAP_FUZZ_SEED=31337 "$bin/asapcrash" torture -seeds 2 -configs squeeze,tinybloom,dep2 > /dev/null

# The crash-case cache, cold then warm: both byte-identical to docs/, and
# the warm run served from the cache alone.
for pass in cold warm; do
	"$bin/asapcrash" -seed 1 -points 28 -cache-dir crashcache \
		> "crash-$pass.txt" 2> "crash-$pass.err"
	cmp "crash-$pass.txt" "$root/docs/crash-sweep-seed1.txt"
done
grep -q 'result cache: 0 hits, 588 misses' crash-cold.err
grep -q 'result cache: 588 hits, 0 misses' crash-warm.err

# The crash harness's negative controls: validation off must fail, and an
# unvalidated recovery is a verdict, never a harness error.
expect 1 "$bin/asapcrash" -seed 1 -points 6 -workloads bigcounter \
	-mixes 'torn=0.6,drop=0.3' -skip-validation > /dev/null
expect 1 "$bin/asapcrash" -seed 1 -points 4 -shrink 0 \
	-workloads BN,BT,CT,EO,HM,Q,RB,SS,TPCC -skip-validation > /dev/null
expect 1 "$bin/asapcrash" -seed 1 -points 28 -shrink 0 \
	-workloads BN,BT,CT,EO,HM,Q,RB,SS,TPCC -skip-validation > skip28.txt
grep -q '^FAIL: ' skip28.txt
! grep '^error:' skip28.txt

# The service campaigns and their controls; the I/O campaign is
# byte-stable per seed.
"$bin/asapd" -campaign 200 -seed 7 > /dev/null
"$bin/asapd" -campaign 20 -seed 3 -control > /dev/null
"$bin/asapd" -iocampaign 300 -seed 7 > io7.json
cmp io7.json "$root/docs/iocampaign-seed7.json"
"$bin/asapd" -iocampaign 60 -seed 7 -control > /dev/null

# asapsim checkpoint/resume and observability; a per-cycle series
# interval fills the recorder, so it decimates.
"$bin/asapsim" -bench HM -scheme ASAP -threads 2 -ops 60 -items 32 -checkpoint-every 5000 -checkpoint-file hm.snap > /dev/null
"$bin/asapsim" -bench HM -scheme ASAP -threads 2 -ops 60 -items 32 -checkpoint-every 5000 -resume-from hm.snap > /dev/null
# A resume under another seed diverges from the snapshot and is refused.
expect 1 "$bin/asapsim" -bench HM -scheme ASAP -threads 2 -ops 60 -items 32 -checkpoint-every 5000 \
	-resume-from hm.snap -seed 2 > /dev/null 2> diverged.err
grep -q 'resume diverged from checkpoint' diverged.err
"$bin/asapsim" -bench Q -scheme ASAP -threads 2 -ops 150 -items 64 -v -profile \
	-profile-json profile.json -timeline timeline.json -series series.csv -series-interval 1 > /dev/null

# The examples.
for e in "$root"/examples/*/; do
	"$bin/$(basename "$e")" > /dev/null
done

section 3. live asapd session
# The budget flags are EXPERIMENTS.md's, set far above any usage, so the
# budget check runs without putting the daemon in degraded mode.
port=8375
base=http://localhost:$port
api=$base/api/v1
"$bin/asapd" -addr 127.0.0.1:$port -dir live-data -workers 2 \
	-budget-cache-soft $((2 << 30)) -budget-cache-hard $((4 << 30)) \
	-budget-store-soft $((8 << 30)) -budget-store-hard $((10 << 30)) 2> asapd.err &
pid=$!
trap 'kill $pid 2> /dev/null || true' EXIT
for _ in $(seq 50); do
	curl -sf $base/readyz > /dev/null 2>&1 && break
	sleep 0.2
done
json() { python3 -c "import sys,json;print(json.load(sys.stdin)$1)"; }
ids=
for exp in fig1 fig7; do
	ids="$ids $(curl -sf -d "{\"experiments\":[\"$exp\"]}" $api/jobs | json '["id"]')"
done
for id in $ids; do
	state=
	for _ in $(seq 300); do
		state=$(curl -sf "$api/jobs/$id" | json '.get("state","")')
		[ "$state" = done ] && break
		sleep 0.5
	done
	[ "$state" = done ]
	for path in result manifest progress; do
		curl -sf "$api/jobs/$id/$path" > "$id.$path"
	done
	curl -sf --max-time 10 "$api/jobs/$id/events" > /dev/null
done
hash=$(json '["artifacts"][0]["hash"]' < "$id.manifest")
curl -sf "$api/artifacts/$hash" > /dev/null
curl -sf $api/jobs > /dev/null
curl -sf $api/stats > /dev/null
curl -sf $api/series > /dev/null
curl -sf "$api/series?format=json" > /dev/null
curl -sf $base/healthz > /dev/null
curl -sf $base/metrics > /dev/null
[ "$(curl -s -o /dev/null -w '%{http_code}' $api/jobs/999999)" = 404 ]
kill -TERM $pid
wait $pid
trap - EXIT

section unreached functions
cd "$root/reach"
go tool covdata percent -i="$GOCOVERDIR" | sort -k 3 -n | head -20
go tool covdata func -i="$GOCOVERDIR" | tail -1
# Key each 0.0 % function by import path and name, a method by its
# receiver type: "asap/internal/trace Buffer.Filter".
go tool covdata func -i="$GOCOVERDIR" | awk '$NF == "0.0%" {
	file = $1; sub(/:.*/, "", file); sub(/\/[^\/]*$/, "", file)
	name = $2; sub(/^\*/, "", name)
	print file, name
}' | sort -u > unreached.txt
awk '!/^(#|$)/ {print $1, $2}' "$root/docs/unreached.txt" | sort -u > allowed.txt
wc -l < unreached.txt | xargs echo "functions at 0.0 %:"
reached=$(comm -13 unreached.txt allowed.txt)
if [ -n "$reached" ]; then
	echo "listed in docs/unreached.txt but reached by this run (not a failure):"
	echo "$reached" | sed 's/^/  /'
fi
new=$(comm -23 unreached.txt allowed.txt)
if [ -n "$new" ]; then
	echo "FAIL: functions no workflow reaches and docs/unreached.txt does not list:" >&2
	echo "$new" | sed 's/^/  /' >&2
	echo "Add a workflow to scripts/reach.sh that reaches each, list it in docs/unreached.txt with its reason, or delete it." >&2
	exit 1
fi
echo "OK: every function at 0.0 % is listed in docs/unreached.txt (${SECONDS}s)"
