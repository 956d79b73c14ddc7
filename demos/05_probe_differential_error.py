"""
Differential error and compounding in derived variables
=======================================================

Aggregate accuracy can hide two failure modes this module exists to
surface: error concentrated in one patient subgroup, and per-component
errors multiplying through a derived classification.
"""

import math

from rwdval import (
    DerivedVariableRule,
    ErrorModel,
    ErrorRates,
    GeneratorConfig,
    Source,
    corrupt,
    end_to_end_metrics,
    expected_end_to_end_recall,
    expected_metrics,
    generate_truth,
    patient_rows,
    stratified_metrics,
)

dataset = generate_truth(GeneratorConfig(n_patients=8000), seed=31)
truth = dataset.labels(Source.REFERENCE)

# ---- part 1: a subgroup-concentrated flip rate ----
# The extraction flips surgery three times as often for groupB patients.
# A human abstractor makes the same base error everywhere.
llm_model = ErrorModel(
    per_variable={"surgery": ErrorRates(flip=0.05)},
    stratum_attribute="race_ethnicity",
    stratum_multipliers={"groupB": 3.0},
)
a1_model = ErrorModel(per_variable={"surgery": ErrorRates(flip=0.05)})
llm = corrupt(dataset, llm_model, source=Source.LLM, seed=32)
a1 = corrupt(dataset, a1_model, source=Source.ABSTRACTOR_1, seed=33)

cohort = sorted(dataset.patients)
strat = stratified_metrics(
    patient_rows(llm, truth, "surgery", "yes", patients=cohort),
    patient_rows(a1, truth, "surgery", "yes", patients=cohort),
    dataset.strata("race_ethnicity"),
)
for name, entry in sorted(strat.items()):
    want = expected_metrics(llm_model, dataset, "surgery", "yes", stratum_value=name)
    print(f"{name} (n={entry.n}): llm recall {entry.llm.recall:.3f} "
          f"(expected {want['recall']:.3f}), abstractor recall {entry.abstraction.recall:.3f}")

gap_llm = strat["groupA"].llm.recall - strat["groupB"].llm.recall
gap_a1 = strat["groupA"].abstraction.recall - strat["groupB"].abstraction.recall
print(f"recall gap across groups: llm {gap_llm * 100:+.1f}pp, abstractor {gap_a1 * 100:+.1f}pp")
print("the extraction's gap is the differential-error signal; overall recall alone hides it\n")

# ---- part 2: errors compound through derived variables ----
# Triple-negative status needs the metastatic index date plus three
# biomarker components. Four modest 5% error rates do not stay 5%.
tnbc = DerivedVariableRule(
    name="triple_negative",
    index_variable="metastatic_dx",
    components=(
        ("er_result", "negative"),
        ("pr_result", "negative"),
        ("her2_result", "negative"),
    ),
    window_days=(-60, 60),
)
components = ("metastatic_dx", "er_result", "pr_result", "her2_result")
flat = ErrorModel(per_variable={v: ErrorRates(flip=0.05) for v in components})

# make the rule decidable for everyone: all metastatic, all tested
tnbc_config = GeneratorConfig(
    n_patients=20000,
    metastatic_fraction=1.0,
    de_novo_fraction=1.0,
    biomarker_positive={"er_result": 0.0, "pr_result": 0.0, "her2_result": 0.0, "gbrca1_result": 0.1},
    biomarker_tested={"er_result": 1.0, "pr_result": 1.0, "her2_result": 1.0, "gbrca1_result": 0.5},
    biomarker_repeat_rate=0.0,
)
tnbc_dataset = generate_truth(tnbc_config, seed=34)
tnbc_llm = corrupt(tnbc_dataset, flat, source=Source.LLM, seed=35)

expected = expected_end_to_end_recall(flat, tnbc)
e2e = end_to_end_metrics(tnbc, tnbc_llm, tnbc_dataset.labels(Source.REFERENCE),
                         cohort=sorted(tnbc_dataset.patients))
n = len(tnbc_dataset.patients)
se = math.sqrt(expected * (1 - expected) / n)
print(f"per-component accuracy: 0.95; components incl. index: {len(components)}")
print(f"expected end-to-end recall 0.95^4 = {expected:.4f}")
print(f"measured end-to-end recall       = {e2e.llm.recall:.4f} (se {se:.4f})")
