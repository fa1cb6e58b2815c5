"""Bundled reference dataset.

profiles.csv / scalars.csv hold 120 highly productive authors in four
subject areas (Chem, Comp, Med, Phy) with their published dimensions
and ratios for the SJR and SNIP families over a 2009-2013 window.
author_events.csv and impact_table.csv hold the raw event stream and
the journal impact values for one of those authors, enough to drive the
full pipeline end to end.
"""

from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of one bundled fixture file; fixture_path('') is their directory."""
    return Path(__file__).parent / name
