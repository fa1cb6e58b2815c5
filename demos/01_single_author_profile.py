"""Build one author's citation-potential profile from scratch.

Shows the three event streams, the weighted-mean dimensions, the four
ratios, and what the missing-value policies do when the impact table
has gaps.
"""

from pirmetrics import (
    AuthorCorpus,
    Event,
    EventKind,
    ImpactTable,
    MissingValuePolicy,
    YearWindow,
    compute_profile,
)

window = YearWindow(2009, 2013)

# Journal impact values for the journals this author touches.
# One row per (journal, year, family).
table = ImpactTable(
    [
        ("Journal of Blue Skies", 2010, "SJR", 2.4),
        ("Journal of Blue Skies", 2011, "SJR", 2.6),
        ("Annals of Drizzle", 2010, "SJR", 1.1),
        ("Annals of Drizzle", 2012, "SJR", 1.3),
        ("Cloud Letters", 2011, "SJR", 4.0),
    ]
)

# The author published 3 papers in Blue Skies 2010 and 2 in Drizzle 2010,
# was cited by Cloud Letters 2011 volumes 5 times, and cited Blue Skies
# 2011 volumes 4 times in their own reference lists.
corpus = AuthorCorpus(
    "demo-author",
    (
        Event(EventKind.PUBLICATION, "Journal of Blue Skies", 2010, 3),
        Event(EventKind.PUBLICATION, "Annals of Drizzle", 2010, 2),
        Event(EventKind.CITATION, "Cloud Letters", 2011, 5),
        Event(EventKind.REFERENCE, "Journal of Blue Skies", 2011, 4),
    ),
    group="Meteorology",
)

profile = compute_profile(corpus, table, "SJR", window)

print("production P =", round(profile.p, 4), " (weighted mean over published-in journals)")
print("impact     I =", round(profile.i, 4), " (weighted mean over citing journals)")
print("reference  R =", round(profile.r, 4), " (weighted mean over cited journals)")
print("P/I =", round(profile.p_over_i, 4), "  P/R =", round(profile.p_over_r, 4))
print("I/R =", round(profile.i_over_r, 4), "  (P+I)/2R =", round(profile.pi_over_2r, 4))

# P = (3*2.4 + 2*1.1) / 5 by hand:
print("P by hand =", (3 * 2.4 + 2 * 1.1) / 5)

# Now remove one impact value and watch the policies differ. The author
# also published once in a journal the table doesn't know in 2012.
corpus2 = AuthorCorpus(
    "demo-author",
    corpus.events + (Event(EventKind.PUBLICATION, "Obscure Bulletin", 2012, 1),),
    group="Meteorology",
)

drop = compute_profile(corpus2, table, "SJR", window)  # default: drop-and-renormalise
print("\nwith an unknown journal, drop policy:   P =", round(drop.p, 4))
print("publication coverage:", drop.coverage[EventKind.PUBLICATION])

try:
    compute_profile(
        corpus2, table, "SJR", window, missing=MissingValuePolicy("strict")
    )
except Exception as exc:
    print("strict policy raises:", exc)

# nearest-year substitution: Annals of Drizzle has no 2011 value, so a
# reference event in 2011 borrows from 2010/2012 (earlier year wins ties).
corpus3 = AuthorCorpus(
    "demo-author",
    (Event(EventKind.REFERENCE, "Annals of Drizzle", 2011, 2),),
)
nearest = compute_profile(
    corpus3, table, "SJR", window, missing=MissingValuePolicy("nearest", 1)
)
print("\nnearest-year policy fills the 2011 gap from 2010: R =", nearest.r)
