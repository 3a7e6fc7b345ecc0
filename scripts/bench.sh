#!/usr/bin/env bash
# Runs the simulator throughput benchmark and emits BENCH_softwatt.json —
# a machine-readable snapshot of simulation speed (Mcycles/s, Minsts/s,
# ns/inst per core) plus host metadata, for CI artifacts and before/after
# comparisons. The "step" row is the functional layer alone:
# internal/arch's BenchmarkStepInto, StepInto over a compress instruction
# stream at one cycle per step, gated like the core rows. A second entry runs BenchmarkSampledSpeedup: a ~10^8-cycle
# workload simulated both ways (full-detail mipsy vs sampled, DESIGN.md
# §13), recorded as the "sampled" object with its wall-clock speedup. A
# third runs BenchmarkSampledWarmFF: the same sampled workload cold (the
# run that populates a fast-forward reservoir cache) and warm (the run
# that restores it, DESIGN.md §14), recorded as the "sampled_warm" object;
# the benchmark itself fails if the two results are not identical.
#
# After writing the fresh snapshot the script compares it against the
# committed baseline (git HEAD's BENCH_softwatt.json, also copied to
# BENCH_baseline.json for artifact upload) and exits nonzero if either
# core's mcycles_per_s dropped more than BENCH_TOLERANCE (default 0.15)
# relative to the baseline, or if the sampled speedup fell below
# SAMPLED_MIN_SPEEDUP (default 5 — the §13 claim; both sides of the ratio
# run on this host, so it does not need a host-specific tolerance), or if
# the warm-over-cold FF-cache speedup fell below FFWARM_MIN_SPEEDUP
# (default 3 — the §14 claim, same-host ratio again), or if the
# mipsy-eprof or mxs-eprof rows (energy profiler + power timeline on,
# DESIGN.md §15) run more than EPROF_MAX_OVERHEAD (default 0.10) slower
# than the matching plain row, or if plain mipsy — the dormant
# observability path — slipped more
# than EPROF_DISABLED_TOL (default 0.02) past the committed baseline.
# BENCHTIME controls -benchtime (default 5x). BENCH_CPUPROFILE, when set,
# captures a CPU profile of the throughput benchmark at that path (plus a
# softwatt.test binary next to it for symbolizing) so a regression caught
# by the gate comes with the profile that explains it.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_softwatt.json}"
raw="$(mktemp)"
sraw="$(mktemp)"
wraw="$(mktemp)"
trap 'rm -f "$raw" "$sraw" "$wraw"' EXIT

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

profargs=()
if [ -n "${BENCH_CPUPROFILE:-}" ]; then
	# -cpuprofile leaves the test binary behind for `go tool pprof`; keep
	# it next to the profile instead of littering the repo root.
	profargs=(-cpuprofile "$BENCH_CPUPROFILE" -o "${BENCH_CPUPROFILE%.pprof}.test")
fi
go test -run '^$' -bench 'BenchmarkSimulatorThroughput' -benchtime "${BENCHTIME:-5x}" "${profargs[@]}" . | tee "$raw"
go test -run '^$' -bench 'BenchmarkStepInto$' -benchtime 50x ./internal/arch | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkSampledSpeedup$' -benchtime 1x . | tee "$sraw"
go test -run '^$' -bench 'BenchmarkSampledWarmFF' -benchtime 1x . | tee "$wraw"

# Pull the sampled-mode metrics out of the benchmark line.
smetric() {
	awk -v unit="$1" '/^BenchmarkSampledSpeedup/ {
		for (i = 2; i < NF; i++) if ($(i+1) == unit) print $i
	}' "$sraw"
}
sampled_s="$(smetric sampled-s)"
detailed_s="$(smetric detailed-s)"
speedup="$(smetric speedup-x)"
ci95="$(smetric ci95-W)"

# Same extraction for the warm FF-cache benchmark line.
wmetric() {
	awk -v unit="$1" '/^BenchmarkSampledWarmFF/ {
		for (i = 2; i < NF; i++) if ($(i+1) == unit) print $i
	}' "$wraw"
}
cold_s="$(wmetric cold-s)"
warm_s="$(wmetric warm-s)"
warmspeed="$(wmetric warmspeed-x)"

awk -v out="$out" -v rev="$rev" -v date="$date" \
	-v sampled_s="$sampled_s" -v detailed_s="$detailed_s" \
	-v speedup="$speedup" -v ci95="$ci95" \
	-v cold_s="$cold_s" -v warm_s="$warm_s" -v warmspeed="$warmspeed" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^BenchmarkSimulatorThroughput\/|^BenchmarkStepInto-/ {
    # BenchmarkSimulatorThroughput/<core>-N  iters  T ns/op  X Mcycles/s  Y Minsts/s  Z ns/inst
    # BenchmarkStepInto-N  iters  T ns/op  X Mcycles/s  Z ns/inst (the "step" row)
    split($1, parts, "/"); core = parts[2]; sub(/-[0-9]+$/, "", core)
    if ($1 ~ /^BenchmarkStepInto/) core = "step"
    cores[core] = 1
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")      nsop[core]  = $i
        if ($(i+1) == "Mcycles/s")  mcyc[core]  = $i
        if ($(i+1) == "Minsts/s")   minst[core] = $i
        if ($(i+1) == "ns/inst")    nsinst[core] = $i
    }
}
END {
    printf "{\n  \"benchmark\": \"SimulatorThroughput\",\n" > out
    printf "  \"rev\": \"%s\",\n  \"date\": \"%s\",\n", rev, date > out
    printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n", goos, goarch, cpu > out
    printf "  \"cores\": {" > out
    sep = ""
    for (core in cores) {
        printf "%s\n    \"%s\": {\"ns_per_op\": %s, \"mcycles_per_s\": %s, \"minsts_per_s\": %s, \"ns_per_inst\": %s}", \
            sep, core, nsop[core], mcyc[core], minst[core], nsinst[core] > out
        sep = ","
    }
    printf "\n  },\n" > out
    printf "  \"sampled\": {\"sampled_s\": %s, \"detailed_s\": %s, \"speedup_x\": %s, \"ci95_w\": %s},\n", \
        sampled_s, detailed_s, speedup, ci95 > out
    printf "  \"sampled_warm\": {\"cold_s\": %s, \"warm_s\": %s, \"warmspeed_x\": %s}\n", \
        cold_s, warm_s, warmspeed > out
    printf "}\n" > out
}' "$raw"

echo "wrote $out"

# Sampled-mode gate: the §13 claim is >=5x over full-detail mipsy on the
# same ~10^8-cycle workload. The ratio compares two runs on this host, so
# a fixed floor works everywhere.
min_speedup="${SAMPLED_MIN_SPEEDUP:-5}"
awk -v s="$speedup" -v min="$min_speedup" 'BEGIN {
	printf "bench: sampled speedup %.2fx over full-detail mipsy (floor %.1fx)\n", s, min
	if (s + 0 < min + 0) {
		printf "bench: REGRESSION: sampled mode is below the %.1fx floor\n", min
		exit 1
	}
}'

# Warm FF-cache gate: the §14 claim is that a warm reservoir cache makes a
# repeat sampled run >=3x faster than the cold run that populated it (the
# benchmark already failed if the results differed). Same-host ratio, so a
# fixed floor works everywhere.
min_warm="${FFWARM_MIN_SPEEDUP:-3}"
awk -v s="$warmspeed" -v min="$min_warm" 'BEGIN {
	printf "bench: warm FF-cache speedup %.2fx over cold sampled run (floor %.1fx)\n", s, min
	if (s + 0 < min + 0) {
		printf "bench: REGRESSION: warm FF-cache runs are below the %.1fx floor\n", min
		exit 1
	}
}'

# Observability overhead gate (DESIGN.md §15): mipsy with the energy
# profiler and power timeline enabled vs plain mipsy, both from the fresh
# run — same host, same binary, so the ratio needs no host tolerance. The
# enabled path must stay within EPROF_MAX_OVERHEAD (default 0.10). The
# disabled path has no separate row: plain mipsy IS the disabled path with
# the feature compiled in, and the baseline gate below holds it to the
# committed floor (EPROF_DISABLED_TOL, default 0.02, checked here against
# the committed mipsy row when a baseline exists).
eprof_max="${EPROF_MAX_OVERHEAD:-0.10}"
for ecore in mipsy mxs; do
	awk -v max="$eprof_max" -v core="$ecore" '
	$0 ~ "\"" core "\":"          { for (i = 1; i <= NF; i++) if ($i ~ /"ns_per_op":$/) { v = $(i+1); gsub(/,/, "", v); plain = v + 0 } }
	$0 ~ "\"" core "-eprof\":"    { for (i = 1; i <= NF; i++) if ($i ~ /"ns_per_op":$/) { v = $(i+1); gsub(/,/, "", v); eprof = v + 0 } }
	END {
		if (plain == 0 || eprof == 0) {
			printf "bench: missing %s/%s-eprof rows for the overhead gate\n", core, core
			exit 1
		}
		over = eprof / plain - 1
		printf "bench: eprof+timeline overhead %.1f%% on %s (ceiling %.0f%%)\n", over * 100, core, max * 100
		if (over > max + 0) {
			printf "bench: REGRESSION: %s observability overhead exceeds the %.0f%% ceiling\n", core, max * 100
			exit 1
		}
	}' "$out"
done

if git show HEAD:BENCH_softwatt.json > /dev/null 2>&1; then
	dis_tol="${EPROF_DISABLED_TOL:-0.02}"
	git show HEAD:BENCH_softwatt.json | awk -v tol="$dis_tol" -v fresh_json="$out" '
	/"mipsy":/ { for (i = 1; i <= NF; i++) if ($i ~ /"ns_per_op":$/) { v = $(i+1); gsub(/,/, "", v); base = v + 0 } }
	END {
		while ((getline line < fresh_json) > 0)
			if (line ~ /"mipsy":/) {
				n = split(line, f, /[ ,]+/)
				for (i = 1; i <= n; i++) if (f[i] ~ /"ns_per_op":$/) fresh = f[i+1] + 0
			}
		if (base == 0 || fresh == 0) {
			print "bench: disabled-path gate: missing mipsy row; skipping"
			exit 0
		}
		over = fresh / base - 1
		printf "bench: disabled-path (plain mipsy) vs committed baseline: %+.1f%% (ceiling %.0f%%)\n", over * 100, tol * 100
		if (over > tol + 0) {
			printf "bench: REGRESSION: the dormant eprof/timeline path slowed mipsy >%.0f%%\n", tol * 100
			exit 1
		}
	}' -
fi

# Regression gate: compare each core's Mcycles/s against the committed
# baseline. The committed file is fetched from git so the gate works even
# when $out overwrites the working-tree copy.
tol="${BENCH_TOLERANCE:-0.15}"
if git show HEAD:BENCH_softwatt.json > BENCH_baseline.json 2>/dev/null; then
	awk -v tol="$tol" '
	/"mcycles_per_s"/ {
		core = $1; gsub(/[":]/, "", core)
		v = ""
		for (i = 1; i <= NF; i++)
			if ($i == "\"mcycles_per_s\":") { v = $(i + 1); gsub(/,/, "", v) }
		if (v == "") next
		if (NR == FNR) base[core] = v + 0
		else fresh[core] = v + 0
	}
	END {
		bad = 0
		for (core in base) {
			if (!(core in fresh)) {
				printf "bench: core %s missing from fresh run\n", core
				bad = 1
				continue
			}
			floor = base[core] * (1 - tol)
			delta = (fresh[core] / base[core] - 1) * 100
			printf "bench: %-11s %8.3f Mcycles/s (baseline %.3f, %+.1f%%, floor %.3f)\n", \
				core, fresh[core], base[core], delta, floor
			if (fresh[core] < floor) {
				printf "bench: REGRESSION: %s is %.1f%% below the committed baseline (tolerance %.0f%%)\n", \
					core, -delta, tol * 100
				bad = 1
			}
		}
		exit bad
	}' BENCH_baseline.json "$out"
else
	echo "bench: no committed baseline; skipping regression gate"
fi
