"""
Building a reference standard from imperfect label sets
=======================================================

Three parties labeled the same five patients: an LLM extraction pipeline,
a first human abstractor, and a second human abstractor. This walks the
three ways a reference standard can be assembled from them.
"""

from datetime import date

from rwdval import (
    AdjudicationError,
    LabelRecord,
    LabelSet,
    Schema,
    Source,
    VariableKind,
    VariableSpec,
    adjudicate_from_oracle,
    build_double_adjudication,
    build_duplicate_abstraction,
    find_disagreements,
    variable_metrics,
)

schema = Schema(
    [
        VariableSpec("surgery", VariableKind.DATE, frozenset({"yes", "no", "unknown"}), "unknown"),
        VariableSpec("stage", VariableKind.CATEGORICAL, frozenset({"I", "II", "III", "IV", "unknown"}), "unknown"),
    ]
)


def labels(source, rows):
    out = LabelSet(schema, source)
    for pid, var, value, *maybe_date in rows:
        d = maybe_date[0] if maybe_date else None
        out.add(LabelRecord(pid, var, value, d, source))
    return out


# the extraction got p3's stage wrong and missed p5's surgery entirely
llm = labels(Source.LLM, [
    ("p1", "surgery", "yes", date(2019, 3, 1)),
    ("p2", "surgery", "no"),
    ("p3", "stage", "III"),
    ("p4", "stage", "I"),
    ("p5", "surgery", "unknown"),
])

# the first abstractor read p3 as stage II and found p5's surgery
a1 = labels(Source.ABSTRACTOR_1, [
    ("p1", "surgery", "yes", date(2019, 3, 3)),
    ("p2", "surgery", "no"),
    ("p3", "stage", "II"),
    ("p4", "stage", "I"),
    ("p5", "surgery", "yes", date(2020, 1, 10)),
])

# the second abstractor agrees with A1 on everything here
a2 = labels(Source.ABSTRACTOR_2, [
    ("p1", "surgery", "yes", date(2019, 3, 3)),
    ("p2", "surgery", "no"),
    ("p3", "stage", "II"),
    ("p4", "stage", "I"),
    ("p5", "surgery", "yes", date(2020, 1, 10)),
])

# ---- mode 1: duplicate abstraction ----
# The second abstraction IS the reference; the extraction and the first
# abstractor are both scored against it on the same footing.
ref = build_duplicate_abstraction(llm, a1, a2)
print("duplicate abstraction:", ref.summary())
for name, side in (("llm", llm), ("abstractor_1", a1)):
    report = variable_metrics(side, ref, "surgery", "yes")
    print(f"  {name}: recall={report.recall} precision={report.precision}")

# ---- the disagreement worklist ----
# Dates within the 30-day tolerance agree (p1: Mar 1 vs Mar 3), so only
# the real conflicts surface.
cases = find_disagreements(llm, a1, tolerance_days=30)
print("\nopen disagreements (llm vs abstractor_1):")
for case in cases:
    print(f"  {case.patient_id}/{case.variable}: "
          f"llm={[r.value for r in case.llm]} vs a1={[r.value for r in case.abstractor_1]}")

# ---- mode 2: double abstraction with adjudication ----
# Every open disagreement must carry an adjudication. Handing over an
# empty worklist aborts with the complete case list, never a partial one.
try:
    build_double_adjudication(llm, a1, LabelSet(schema, Source.ADJUDICATOR))
except AdjudicationError as exc:
    print("\nwithout adjudications:", exc)
    print(f"  the error carries the worklist: {len(exc.worklist)} open case(s)")

# An adjudicator (here simulated by copying A2, who we trust) resolves
# each case; agreed keys keep the first abstractor's record.
adjudications = adjudicate_from_oracle(cases, a2.relabel(Source.REFERENCE))
ref2 = build_double_adjudication(llm, a1, adjudications)
print("\ndouble adjudication:", ref2.summary())
print("provenance per key:")
for (pid, var), prov in sorted(ref2.provenance.items()):
    print(f"  {pid}/{var}: {prov.value}")
