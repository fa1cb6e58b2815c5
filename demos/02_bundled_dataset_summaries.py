"""Grouped statistics over the bundled 120-author dataset.

Reproduces the central comparison: which normalisation ratio pulls the
four subject areas closest together, measured by how much of the
within-group variability the between-group component represents.
"""

from pirmetrics.data import fixture_path
from pirmetrics.report import aggregate_report, group_summary, load_profiles


def records(table):
    """A report table's rows as {column: cell} dicts."""
    header, data = table
    return [dict(zip(header, row)) for row in data]


rows = load_profiles(fixture_path("profiles.csv"))
print(f"{len(rows)} authors in groups:", sorted({r.group for r in rows}))

# Per-group central tendency for the production dimension.
for s in records(group_summary(rows, variables=["p_sjr"])):
    print(
        f"  {s['group']:<5} P(SJR): median {s['median']:.3f}  mean {s['mean']:.3f}  "
        f"std {s['std']:.3f}  range {s['range']:.3f}"
    )

# Variance decomposition per variable: the percentage reduction is
# 1 - between/within, so bigger means the groups look more alike.
print("\nvariance reduction by variable (SJR family):")
variables = ["p_sjr", "i_sjr", "r_sjr", "pi_sjr", "pr_sjr", "ir_sjr", "pi2r_sjr"]
aggregate, deltas = aggregate_report(rows, variables=[*variables, "pi_snip"])
for a in records(aggregate)[: len(variables)]:
    print(
        f"  {a['variable']:<9} within {a['within_ss']:8.3f}  between {a['between_ss']:7.3f}"
        f"  reduction {100 * a['pct_reduction']:5.1f}%"
    )

# The production-over-impact ratio wins, and stays consistent when the
# impact numbers switch family: the pooled medians/means barely move.
delta = next(d for d in records(deltas) if d["variable"] == "pi")
print(
    f"\nP/I across families: median shift {delta['median_delta_pct']:.1f}%, "
    f"mean shift {delta['mean_delta_pct']:.1f}%"
)
