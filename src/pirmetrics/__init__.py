"""Author citation potential metrics.

Three dimensions summarise where an author's work sits in the citation
network of their own topic: the weighted mean impact of the journals
they publish in (production, P), of the journals citing them (impact,
I), and of the journals they cite (reference, R). The four ratios P/I,
P/R, I/R and (P+I)/2R normalise those dimensions against each other;
P/I in particular behaves consistently across fields and impact-number
families. This package computes the dimensions and ratios from event
data and journal impact tables, and ships the grouped statistics used
to compare them across subject areas.
"""

from types import ModuleType as _ModuleType

from .engine import (
    BatchError,
    EngineError,
    MissingImpactError,
    MissingValuePolicy,
    WindowPolicy,
    compute_profile,
    compute_profiles,
    weighted_mean_impact,
)
from .model import (
    SJR,
    SNIP,
    AuthorCorpus,
    CoverageDiagnostics,
    Event,
    EventKind,
    ImpactTable,
    IndicatorProfile,
    ModelError,
    YearWindow,
    __version__,
    derive_ratios,
)
from .io import (
    IngestError,
    ScalarMetrics,
    load_events,
    load_impact_table,
    load_scalars,
    save_events,
    save_impact_table,
    save_scalars,
)
from .stats import (
    BoxplotSummary,
    CorrelationCell,
    DescriptiveSummary,
    GroupedSample,
    StatsError,
    VarianceDecomposition,
    average_ranks,
    boxplot,
    correlation_matrix,
    describe,
    pearson,
    spearman,
    variance_decomposition,
)

# the re-exported names, not the submodules bound here by the imports above: a star
# import must not shadow a caller's own io (or engine, model, stats)
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
