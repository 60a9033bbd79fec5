"""Replicability analysis of a small follow-up study with FWER control.

The bundled hippocampal-volume dataset has 2.5 million SNPs screened in
the primary study and five loci carried into a follow-up study. With so
few follow-up hypotheses, family-wise error control is the natural
yardstick: a locus counts as a replicated finding only when its primary
p-value survives a genome-wide Bonferroni cut AND its follow-up p-value
survives a Bonferroni cut within the followed-up set.
"""

from replicability import (
    SelectionRule,
    build_adjusted_table,
    fwer_two_stage,
    load_hippocampal_volume,
)

data = load_hippocampal_volume()
print(f"family size m = {data.m:,}, followed up = {data.r1_listed}")
print()

rule = SelectionRule("followup")
for alpha1 in (0.025, 0.04):
    report = fwer_two_stage(data, rule, alpha1=alpha1, alpha=0.05)
    print(f"two-stage FWER at (alpha1, alpha) = ({alpha1}, 0.05)")
    print(f"  primary threshold  {report.primary_threshold:.3g}")
    print(f"  follow-up threshold {report.followup_threshold:.3g}")
    print(f"  replicated: {', '.join(report.rejected_ids) or 'none'}")
    print()

# The same decision expressed as adjusted p-values: a hypothesis is
# rejected at overall level alpha exactly when its adjusted value is
# at most alpha. The split c = alpha1/alpha is a design choice; larger c
# spends more of the budget on the (much harder) primary stage.
print("Bonferroni-replicability adjusted p-values")
print(f"{'id':8s} {'p1':>10s} {'p2':>10s}   c=0.2    c=0.5    c=0.8")
columns = {}
for c in (0.2, 0.5, 0.8):
    table = build_adjusted_table(data, c, "bonferroni")
    columns[c] = dict(zip(table.ids, table.adjusted))
for id_, p1, p2 in zip(data.ids, data.p1, data.p2):
    cells = "  ".join(f"{columns[c][id_]:7.4f}" for c in (0.2, 0.5, 0.8))
    print(f"{id_:8s} {p1:10.2g} {p2:10.2g}  {cells}")
print()
print("only MSRB3 stays below 0.05, and only for c >= 0.5")
