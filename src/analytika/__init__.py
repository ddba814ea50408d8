"""Static analysis of hardware-backed security API usage in Android apps."""

from .container import (
    ArchiveIndex,
    EntryMeta,
    enumerate_dex,
    enumerate_native_libs,
    open_archive,
    read_entry,
    sha256_digest,
)
from .dex import DexUnit, MethodRef, parse_dex
from .manifest import ManifestInfo, extract_manifest_info, parse_binary_xml
from .matchers import (
    MatchRecord,
    NativeLibPattern,
    PatternSet,
    TEE_DETECTORS,
    load_native_pattern_file,
    load_pattern_file,
    match_crypto_packages,
    match_native_libs,
    match_tee_apis,
)
from .pipeline import (
    AnalysisConfig,
    CorpusEntry,
    analyze_apk,
    fetch_by_hash,
    run_corpus,
)
from .report import AppReport

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AppReport",
    "ArchiveIndex",
    "CorpusEntry",
    "DexUnit",
    "EntryMeta",
    "ManifestInfo",
    "MatchRecord",
    "MethodRef",
    "NativeLibPattern",
    "PatternSet",
    "TEE_DETECTORS",
    "analyze_apk",
    "enumerate_dex",
    "enumerate_native_libs",
    "extract_manifest_info",
    "fetch_by_hash",
    "load_native_pattern_file",
    "load_pattern_file",
    "match_crypto_packages",
    "match_native_libs",
    "match_tee_apis",
    "open_archive",
    "parse_binary_xml",
    "parse_dex",
    "read_entry",
    "run_corpus",
    "sha256_digest",
    "__version__",
]
