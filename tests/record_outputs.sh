#!/bin/sh
# Write the stdout of the demos and of the main commands on the rhms
# fixtures into DIR, one file each. tests/fixtures/expected holds the
# recorded outputs; CI runs this into a fresh directory and diffs the two.
#
# Run from the repository root:  sh tests/record_outputs.sh DIR
set -eu
out=$1
fx=tests/fixtures
mkdir -p "$out"
export PYTHONPATH=src
for demo in catalog_tour provider_matching violation_monitoring; do
  python "demos/$demo.py" > "$out/demo_$demo.out"
done
python -m iotsla fmt - < "$fx/rhms.sla" > "$out/fmt_rhms.out"
python -m iotsla fmt - < "$fx/messy.sla" > "$out/fmt_messy.out"
python -m iotsla validate "$fx/rhms.sla" --json > "$out/validate_rhms.out"
python -m iotsla match "$fx/procure.sla" "$fx/alpha.offer.json" "$fx/beta.offer.json" \
  --weights "$fx/weights.json" --json > "$out/match_procure.out"
python -m iotsla match "$fx/rhms.sla" "$fx/alpha.offer.json" "$fx/beta.offer.json" \
  --json > "$out/match_rhms.out"
# spike.telemetry breaches the agreement, so this exits 1
python -m iotsla monitor "$fx/rhms.sla" "$fx/spike.telemetry" --json > "$out/monitor_spike.out" \
  || test $? -eq 1
python -m iotsla monitor "$fx/rhms.sla" "$fx/calm.telemetry" --json > "$out/monitor_calm.out"
