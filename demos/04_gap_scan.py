"""Verifying and stress-testing the Mahler-gap inequality.

G(A) = phi_A(0) E|sum a_k e_k| - 1 >= 0 is the 2n+2-facet case of Mahler's
conjecture in Ball's section-function form.  Equality holds at n = 1, for
every n = 2 vector, for equal weights at n = 4, and more generally whenever
the largest weight equals the sum of the others.  This script checks the
equality table, scans random families, runs a local minimizer, and probes
the threshold where the proof-route slack turns non-negative.
"""

from boxgap import (
    FamilySpec,
    epsilon0_cap,
    gap,
    generate,
    make_unit,
    minimize_gap,
    scan_random,
    threshold_probe,
)

print("equality table:")
for label, A in [
    ("n=1", make_unit([1.0])),
    ("n=2 (0.6, 0.8)", make_unit([0.6, 0.8])),
    ("equal n=3", generate(FamilySpec("equal", 3))),
    ("equal n=4", generate(FamilySpec("equal", 4))),
    ("(1,1,2)/sqrt(6)", make_unit([1.0, 1.0, 2.0])),
]:
    print(f"  {label:18s} gap = {gap(A).gap:+.12f}")

print("\nrandom scans (1000 trials each, ratio cap 4):")
for n in (3, 5, 8):
    s = scan_random(n, 4.0, trials=1000, seed=n)
    print(f"  n = {n}: min gap = {s.min_report.gap:+.6f} "
          f"(trial {s.argmin_trial}, ratio {s.min_report.A.a[-1] / s.min_report.A.a[0]:.3f})")

print("\nlocal descent from a random start (n = 5):")
start = generate(FamilySpec("random", 5, c0=4.0, seed=99))
report, exhausted = minimize_gap(4.0, start, budget=1500)
print(f"  start gap = {gap(start).gap:+.6f} -> minimized gap = "
      f"{report.gap:+.6f} (budget exhausted: {exhausted})")

print("\nthreshold probe, equal family (true gap vs proof-route slack):")
probe = threshold_probe(1.0, "equal", range(1, 11))
for row in probe.rows:
    print(f"  n = {row.n:2d}: gap = {row.min_gap:+.6f}, "
          f"slack = {row.min_slack:+.6f}")
print(f"  slack stays non-negative from n = {probe.empirical_N0} on "
      f"(margin cap epsilon_0 <= {epsilon0_cap():.6f})")
