"""Exception types shared across the framework."""


class AnalytikaError(Exception):
    """Base class for all framework errors."""


# -- archive container ------------------------------------------------------

class MalformedArchiveError(AnalytikaError):
    """Input is not a structurally valid ZIP archive."""


class EntryNotFoundError(AnalytikaError, KeyError):
    """Requested entry name is absent from the archive index."""


class DecompressionError(AnalytikaError):
    """Entry data could not be decompressed (corrupt or unsupported stream)."""


class SizeMismatchError(AnalytikaError):
    """Inflated entry length differs from the declared uncompressed size."""


# -- binary manifest --------------------------------------------------------

class MalformedManifestError(AnalytikaError):
    """Input is not a structurally valid binary XML document."""


class MissingPackageNameError(AnalytikaError):
    """Manifest has no usable package attribute."""


# -- bytecode ----------------------------------------------------------------

class MalformedDexError(AnalytikaError):
    """Input is not a structurally valid DEX file."""


# -- matching ----------------------------------------------------------------

class PatternParseError(AnalytikaError, ValueError):
    """Pattern file row is malformed."""


# -- pipeline / fetching -----------------------------------------------------

class AnalysisTimeout(AnalytikaError):
    """Cooperative per-app deadline expired; analysis was abandoned."""


class NetworkError(AnalytikaError):
    """Transport-level failure while fetching an APK."""


class HttpStatusError(AnalytikaError):
    """Non-success HTTP status from the download endpoint."""

    def __init__(self, code: int):
        super().__init__(f"HTTP status {code}")
        self.code = code


class HashMismatchError(AnalytikaError):
    """An app's bytes do not digest to its listed sha256."""


# -- aggregation -------------------------------------------------------------

class DuplicateSha256Error(AnalytikaError, ValueError):
    """Corpus metadata contains the same sha256 more than once."""


class MalformedReportError(AnalytikaError):
    """A report `report.read_record` refuses, or one that repeats a sha256."""
