"""
The full validation pipeline, file in / report out
==================================================

Builds a complete validation workspace on disk (schema, label files,
attributes, run config), executes every pillar, and reads the emitted
report bundle. The CLI drives the same code paths:

    rwdval --out ws --seed 5 simulate --n 400
    rwdval --config ws/run.yaml run
    rwdval --config ws/run.yaml report
"""

import json
import tempfile
from pathlib import Path

from rwdval import (
    ErrorModel,
    ErrorRates,
    GeneratorConfig,
    Source,
    corrupt,
    emit_report,
    generate_truth,
    load_run_config,
    run_pipeline,
    save_schema,
    write_attributes,
    write_labels,
)

with tempfile.TemporaryDirectory(prefix="rwdval_demo_") as tmp:
    ws = Path(tmp)

    # ---- the input files ----
    dataset = generate_truth(GeneratorConfig(n_patients=400), seed=5)
    llm = corrupt(dataset, ErrorModel(default=ErrorRates(miss=0.03, flip=0.02, date_shift_rate=0.05, date_shift_days=45)),
                  source=Source.LLM, seed=6)
    a1 = corrupt(dataset, ErrorModel(default=ErrorRates(miss=0.01, flip=0.01)),
                 source=Source.ABSTRACTOR_1, seed=7)
    a2 = dataset.labels(Source.REFERENCE).relabel(Source.ABSTRACTOR_2)

    save_schema(dataset.schema, ws / "schema.yaml")
    write_attributes(dataset.patients, ws / "attributes.csv")
    write_labels(llm, ws / "labels_llm.csv")
    write_labels(a1, ws / "labels_abstractor_1.csv")
    write_labels(a2, ws / "labels_abstractor_2.csv")

    (ws / "run.yaml").write_text("""\
schema: schema.yaml
labels:
  llm: labels_llm.csv
  abstractor_1: labels_abstractor_1.csv
  abstractor_2: labels_abstractor_2.csv
attributes: attributes.csv
strata: [race_ethnicity, treatment_arm]
reference_mode: duplicate_abstraction
metrics:
  variables:
    - {variable: surgery, positive_class: "yes"}
    - {variable: metastatic_dx, positive_class: "yes"}
thresholds:
  recall: 0.80
analyses:
  - kind: survival_benchmark
    name: os_by_arm
    index_variable: metastatic_dx
    event_variable: death
    censor_variable: last_contact
    group_by: treatment_arm
    benchmark: {name: arm_a_longer_os, type: direction, higher: A, lower: B}
  - kind: trend
    variable: metastatic_dx
tolerances:
  seed: 5
output_dir: results
""")

    # ---- run every pillar and emit the bundle ----
    config = load_run_config(ws / "run.yaml")
    result = run_pipeline(config)
    emit_report(result, config.output_dir)
    print(f"exit code: {result.exit_code}")
    print(f"written to {ws / 'results'}: "
          f"{sorted(p.name for p in (ws / 'results').iterdir())}")

    # ---- what the report holds ----
    report = json.loads((ws / "results" / "report.json").read_text())
    print(f"\nconfig hash: {report['config_hash'][:16]}...")
    print(f"reference: {report['reference']['mode']}, n={report['cohort']['n_patients']} patients")
    for variable, entry in report["metrics"]["variables"].items():
        print(f"{variable}: llm recall {entry['llm']['recall']:.3f} vs "
              f"abstraction {entry['abstraction']['recall']:.3f}")
    for issue in report["issues"]:
        print(f"issue: {issue}")

    print("\n--- summary.txt ---")
    print((ws / "results" / "summary.txt").read_text())
