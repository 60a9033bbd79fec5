"""FDR-controlled replicability with dependence-robust variants.

The bundled Crohn's-disease dataset: 635,547 SNPs screened, 126 followed
up (all with primary p-values below 5e-5), 36 published discoveries. The
plain two-stage run assumes independence within each study; since SNP
p-values are correlated, two conservative variants shrink the
primary-stage level: dividing by the harmonic sum H_m, or solving a
smaller correction that exploits the selection threshold t = 5e-5.
"""

from replicability import (
    Dependence,
    SelectionRule,
    build_adjusted_table,
    fdr_two_stage,
    harmonic,
    load_crohns_disease,
    solve_q1_tilde_thresholded,
)

data = load_crohns_disease()
rule = SelectionRule("fixed_threshold", threshold=5e-5)
q1, q = 0.04, 0.05

print(f"m = {data.m:,}; |R1| = {data.r1_declared} followed up; "
      f"{len(data.ids)} rows published")
print(f"harmonic correction factor H_m = {harmonic(data.m):.4f}")
print(f"thresholded corrected level    = "
      f"{solve_q1_tilde_thresholded(q1, data.m, 5e-5):.4f} "
      f"(plain harmonic: {q1 / harmonic(data.m):.4f})")
print()

runs = [
    ("independence assumed", Dependence.INDEPENDENT, None),
    ("arbitrary primary dependence (harmonic)", Dependence.ARBITRARY_PRIMARY_ITEM1, None),
    ("arbitrary primary dependence (thresholded)", Dependence.ARBITRARY_PRIMARY_ITEM2, 5e-5),
]
for label, mode, t in runs:
    report = fdr_two_stage(data, rule, q1, q, mode, t)
    print(f"{label:45s} -> {report.r2} discoveries")
print()

# Ranked adjusted p-values at c = q1/q = 0.8, with the harmonic-corrected
# column alongside. Values computed from the 36 published rows alone are
# upper bounds for the rows the corrected procedure no longer flags.
table = build_adjusted_table(
    data, c=0.8, flavor="fdr", mode=Dependence.ARBITRARY_PRIMARY_ITEM1
)
print("top of the adjusted table (c = 0.8):")
print(f"{'id':16s} {'adjusted':>10s} {'corrected':>10s}")
for id_, adjusted, corrected in zip(table.ids[:10], table.adjusted, table.modified):
    print(f"{id_:16s} {adjusted:10.3g} {corrected:10.3g}")
if table.adjusted_is_upper_bound:
    print("(values are upper-bound estimates: only part of the follow-up "
          "set is published)")
