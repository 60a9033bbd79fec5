"""How the level split between the stages affects power.

The two-stage FDR procedure spends q1 of its budget on the primary stage
and q - q1 on the follow-up stage. Sweeping c = q1/q shows the trade-off:
tiny c starves the primary stage (few hypotheses survive screening),
c near 1 starves the follow-up stage. When signals are equally strong in
both studies the optimum sits above c = 0.5, and the curve is fairly
flat around it.

Desk-scale settings (400 repetitions) keep this under half a minute;
published-table settings are m = 1000 with 1000 repetitions.
"""

from replicability import Procedure, SimScenario, sweep

scenario = SimScenario(
    m=1000, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
    mu1=2.0, mu2=2.0, sigma1=0.5, sigma2=0.5,
    procedure=Procedure(kind="fdr", q1=0.025, q=0.05),
    reps=400, seed=11,
)

print("power of the two-stage FDR procedure at (0.05c, 0.05), mu = 2:")
print(f"{'c':>4s} {'power':>8s} {'avg FDP':>9s}")
rows = sweep(scenario, "c", [0.1, 0.3, 0.5, 0.7, 0.9])
for c, est in rows:
    print(f"{c:4.1f} {est.avg_power:8.3f} {est.avg_fdp:9.3f}")

best = max(rows, key=lambda r: r[1].avg_power)
print()
print(f"best split on this grid: c = {best[0]:.1f} "
      f"(power {best[1].avg_power:.3f}); FDP stays below 0.05 throughout")
