"""The paper's core contribution: passive collection and its analyses.

The address corpus (:mod:`repro.core.corpus`), the 27-vantage NTP
campaign (:mod:`repro.core.campaign`), full-study orchestration
(:mod:`repro.core.study`), the Table 1 dataset comparison
(:mod:`repro.core.compare`), lifetime analyses (:mod:`repro.core.lifetime`),
backscanning (:mod:`repro.core.backscan`), addressing-pattern views
(:mod:`repro.core.categories`), EUI-64 tracking
(:mod:`repro.core.tracking`) and the ethics-aware /48 release
(:mod:`repro.core.release`).
"""

from .backscan import BackscanCampaign, BackscanReport
from .campaign import CampaignConfig, CaptureModel, NTPCampaign
from .categories import (
    category_composition,
    compare_category_compositions,
    top_as_entropy_distributions,
)
from .compare import (
    DatasetComparison,
    DatasetRow,
    compare_datasets,
    phone_provider_shares,
)
from .corpus import AddressCorpus
from .index import CachedOrigins, CorpusIndex, PartialIndexColumns
from .lifetime import (
    LifetimeSummary,
    address_lifetime_summary,
    eui64_iid_lifetimes,
    iid_lifetimes_by_entropy,
)
from .decay import corpus_decay, responsiveness_decay
from .outages import ASActivityRecorder, OutageEvent, detect_outages
from .parallel import ShardFailure, ShardSpec, run_campaign_parallel
from .segments import (
    PARTIAL_INDEX_SUFFIX,
    Manifest,
    SegmentBufferedCorpus,
    SegmentError,
    SegmentMeta,
    SegmentStore,
    SegmentedCorpusReader,
)
from .release import (
    ReleaseArtifact,
    build_release,
    verify_release_safety,
)
from .storage import CorpusFormatError, load_corpus, save_corpus
from .study import ExecutionOptions, StudyConfig, StudyResults, run_study
from .tracking import (
    MACTrack,
    TRANSITION_THRESHOLD,
    TrackingClass,
    TrackingReport,
    analyze_tracking,
    build_mac_tracks,
)

__all__ = [
    "ASActivityRecorder",
    "AddressCorpus",
    "BackscanCampaign",
    "BackscanReport",
    "CachedOrigins",
    "CampaignConfig",
    "CaptureModel",
    "CorpusFormatError",
    "CorpusIndex",
    "DatasetComparison",
    "DatasetRow",
    "ExecutionOptions",
    "LifetimeSummary",
    "MACTrack",
    "Manifest",
    "NTPCampaign",
    "OutageEvent",
    "PARTIAL_INDEX_SUFFIX",
    "PartialIndexColumns",
    "ReleaseArtifact",
    "SegmentBufferedCorpus",
    "SegmentError",
    "SegmentMeta",
    "SegmentStore",
    "SegmentedCorpusReader",
    "ShardFailure",
    "ShardSpec",
    "StudyConfig",
    "StudyResults",
    "TRANSITION_THRESHOLD",
    "TrackingClass",
    "TrackingReport",
    "address_lifetime_summary",
    "analyze_tracking",
    "build_mac_tracks",
    "build_release",
    "category_composition",
    "compare_category_compositions",
    "compare_datasets",
    "corpus_decay",
    "detect_outages",
    "eui64_iid_lifetimes",
    "iid_lifetimes_by_entropy",
    "load_corpus",
    "phone_provider_shares",
    "responsiveness_decay",
    "run_campaign_parallel",
    "run_study",
    "save_corpus",
    "top_as_entropy_distributions",
    "verify_release_safety",
]
