"""
Scoring an extraction pipeline against expert abstraction
=========================================================

Generates a synthetic truth cohort, derives two imperfect label feeds from
it (a noisier "LLM" one and a cleaner "abstractor" one), and walks the
variable-level scorecard: recall, precision, F1, date accuracy,
completeness, and the exact percentage-point deltas between the two feeds.
"""

from rwdval import (
    ErrorModel,
    ErrorRates,
    GeneratorConfig,
    Source,
    bootstrap_variable_ci,
    corrupt,
    generate_truth,
    match_events,
    patient_rows,
    relative_difference,
    variable_metrics,
)

dataset = generate_truth(GeneratorConfig(n_patients=2000), seed=7)
truth = dataset.labels(Source.REFERENCE)

llm_model = ErrorModel(default=ErrorRates(miss=0.06, flip=0.04, date_shift_rate=0.10, date_shift_days=45))
a1_model = ErrorModel(default=ErrorRates(miss=0.02, flip=0.01, date_shift_rate=0.03, date_shift_days=45))
llm = corrupt(dataset, llm_model, source=Source.LLM, seed=8)
a1 = corrupt(dataset, a1_model, source=Source.ABSTRACTOR_1, seed=9)

cohort = sorted(dataset.patients)
for variable, positive in (("surgery", "yes"), ("metastatic_dx", "yes"), ("hr_status", "positive")):
    m_llm = variable_metrics(llm, truth, variable, positive, patients=cohort)
    m_a1 = variable_metrics(a1, truth, variable, positive, patients=cohort)
    print(f"{variable} (positive={positive!r})")
    print(f"  llm        recall={m_llm.recall:.3f} precision={m_llm.precision:.3f} "
          f"f1={m_llm.f1:.3f} completeness={m_llm.completeness:.3f}")
    print(f"  abstractor recall={m_a1.recall:.3f} precision={m_a1.precision:.3f} "
          f"f1={m_a1.f1:.3f} completeness={m_a1.completeness:.3f}")
    # deltas are computed in exact rational arithmetic from the stored
    # integer ratios, so tabulated gaps come out as exact figures
    for row in relative_difference(m_llm, m_a1):
        print(f"  delta {row.metric}: {row.delta_pp:+.2f}pp")

# date accuracy only counts value-matched pairs where both sides carry a
# date; a 45-day shift lands outside the default 30-day tolerance
m_llm = variable_metrics(llm, truth, "surgery", "yes", patients=cohort)
print(f"\nsurgery date accuracy, llm: {m_llm.date_accuracy:.3f} "
      f"(shifted dates fall outside the 30-day window)")

# uncertainty: patient-resampled bootstrap intervals. Each patient's
# contribution to the counts is computed once; every replicate re-sums the
# contributions of its resample instead of re-scoring labels.
rows = patient_rows(llm, truth, "surgery", "yes", patients=cohort)
ci = bootstrap_variable_ci(rows, n_replicates=500, seed=0)
lo, hi = ci["recall"]
print(f"surgery recall 95% CI: [{lo:.3f}, {hi:.3f}]")

# event-list variables are scored per event through optimal matching
# within tolerance, not per patient
pred = [r.event_date for r in llm.get("P000001", "er_result")]
ref = [r.event_date for r in truth.get("P000001", "er_result")]
if pred and ref:
    matching = match_events(pred, ref, 30)
    print(f"\nP000001 er_result events: {matching.n_matched} matched, "
          f"{len(matching.unmatched_pred)} spurious, {len(matching.unmatched_ref)} missed")
