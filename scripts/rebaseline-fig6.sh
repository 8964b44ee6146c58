#!/usr/bin/env bash
# Per-point summary of a 30-repetition Fig. 6a–6f run, the input of the
# statistical re-baselining gate (rebaseline_test.go at the repo root).
#
#   scripts/rebaseline-fig6.sh DIR OUT.csv
#
# runs every Fig. 6 panel at -reps 30 with its journal in DIR/cp-<fig>.jsonl,
# resuming whatever the journals already hold (a finished run is only
# replayed, so the script can summarize journals written earlier by the same
# build), and writes one CSV row per sweep point:
#
#   fig,x,n,failed,addc_mean,addc_sd,coolest_mean,coolest_sd,logratio_mean,logratio_sd
#
# n counts the repetitions where both algorithms delivered; failed counts the
# others. Means and sample standard deviations are over those n repetitions
# of the ADDC delay, the Coolest delay and ln(Coolest/ADDC). A full run takes
# about half an hour on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 2 ]]; then
	echo "usage: $0 DIR OUT.csv" >&2
	exit 2
fi
dir=$1
out=$2
mkdir -p "$dir"
go build -o "$dir/addc-experiments" ./cmd/addc-experiments

echo "fig,x,n,failed,addc_mean,addc_sd,coolest_mean,coolest_sd,logratio_mean,logratio_sd" >"$out"
for fig in 6a 6b 6c 6d 6e 6f; do
	# The CSV summary lists the sweep's x values in grid order: row i is xi.
	"$dir/addc-experiments" -fig "$fig" -reps 30 -resume -csv \
		-checkpoint "$dir/cp-$fig.jsonl" >"$dir/$fig.csv"
	awk -v fig="$fig" '
		function field(name,   m) {
			if (!match($0, "\"" name "\":[^,}]*")) return ""
			m = substr($0, RSTART + length(name) + 3, RLENGTH - length(name) - 3)
			gsub(/"/, "", m)
			return m
		}
		function sd(s, ss, n) { return n > 1 ? sqrt((ss - s * s / n) / (n - 1)) : 0 }
		FNR == NR {
			if (FNR > 2) xs[FNR - 3] = substr($0, 1, index($0, ",") - 1)
			next
		}
		{
			key = field("xi") SUBSEP field("rep")
			reps[key] = 1
			if (index($0, "\"err\":")) bad[key] = 1
			else delay[key, field("algo")] = field("delay") + 0
		}
		END {
			for (key in reps) {
				split(key, k, SUBSEP)
				xi = k[1]
				if (!(xi in nx)) nx[xi] = 0
				if (key in bad || !((key, "addc") in delay) || !((key, "coolest") in delay)) {
					failed[xi]++
					continue
				}
				a = delay[key, "addc"]; c = delay[key, "coolest"]; l = log(c / a)
				nx[xi]++
				sa[xi] += a; qa[xi] += a * a
				sc[xi] += c; qc[xi] += c * c
				sl[xi] += l; ql[xi] += l * l
			}
			for (xi = 0; xi in xs; xi++) {
				n = nx[xi]
				if (n == 0) { printf "%s,%s,0,%d,,,,,,\n", fig, xs[xi], failed[xi]; continue }
				printf "%s,%s,%d,%d,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g\n", fig, xs[xi], n, failed[xi] + 0,
					sa[xi] / n, sd(sa[xi], qa[xi], n), sc[xi] / n, sd(sc[xi], qc[xi], n),
					sl[xi] / n, sd(sl[xi], ql[xi], n)
			}
		}' "$dir/$fig.csv" "$dir/cp-$fig.jsonl" >>"$out"
done
echo "wrote $out"
