#!/bin/sh
# Write the stdout of the demos and of the main commands on the
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
python -m iotsla match "$fx/procure.sla" "$fx/alpha.offer.json" "$fx/beta.offer.json" \
  --weights "$fx/weights.json" > "$out/match_procure_text.out"
python -m iotsla match "$fx/rhms.sla" "$fx/alpha.offer.json" "$fx/beta.offer.json" \
  --json > "$out/match_rhms.out"
# spike.telemetry breaches the agreement, so this exits 1
python -m iotsla monitor "$fx/rhms.sla" "$fx/spike.telemetry" --json > "$out/monitor_spike.out" \
  || test $? -eq 1
python -m iotsla monitor "$fx/rhms.sla" "$fx/calm.telemetry" --json > "$out/monitor_calm.out"
python -m iotsla validate "$fx/rhms.sla" --verbose > "$out/validate_rhms_verbose.out"
# mut_v004.sla has an error diagnostic, so these exit 1
python -m iotsla validate "$fx/mut_v004.sla" > "$out/validate_mut_v004.out" || test $? -eq 1
python -m iotsla validate "$fx/mut_v004.sla" --json > "$out/validate_mut_v004_json.out" \
  || test $? -eq 1
python -m iotsla monitor "$fx/rhms.sla" "$fx/spike.telemetry" > "$out/monitor_spike_text.out" \
  || test $? -eq 1
python -m iotsla vocab list --json > "$out/vocab_list.out"
python -m iotsla vocab show latency ingestion --json > "$out/vocab_show_latency.out"
python -m iotsla vocab export > "$out/vocab_export.out"
