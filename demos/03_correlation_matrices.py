"""Correlations between the scalar counters and the dimensions.

Pearson picks up linear association; the rank version is immune to the
heavy tails of paper/citation counts. Marks: ^a 90%, ^b 95%, ^c 99%.
"""

from pirmetrics.data import fixture_path
from pirmetrics.report import (
    correlation_report,
    load_profiles,
    render_correlation_text,
)

rows = load_profiles(fixture_path("profiles.csv"))

_, pearson = correlation_report(rows, method="pearson")
print(render_correlation_text(pearson, "pearson"))

_, spearman = correlation_report(
    rows, method="spearman", variables=["papers", "cites", "h", "pi_sjr"]
)
print(render_correlation_text(spearman, "spearman"))

# the bibliometric counters correlate strongly with each other but only
# weakly with the dimensions, which is the point of keeping both
r_of = {(group, a, b): r for group, a, b, r, *_ in pearson}
print("Phy papers~cites:", round(r_of["Phy", "papers", "cites"], 2))
print("Phy papers~P/I:  ", round(r_of["Phy", "papers", "pi_sjr"], 2))
