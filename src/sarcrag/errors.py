"""Exception types shared across the package."""

from __future__ import annotations


class SarcragError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SarcragError):
    """Invalid or missing run configuration."""


class FormatError(SarcragError):
    """A dataset file does not match its expected layout."""

    def __init__(self, message: str, *, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SampleError(SarcragError):
    """A fault that fails one sample only; the run skips it and goes on."""


class TransportError(SampleError):
    """The chat backend could not be reached or returned a bad payload."""


class EmptyResponse(SampleError):
    """The chat backend answered with empty or whitespace-only text."""


class MissingTranscript(SampleError):
    """Replay was asked for a request that was never recorded."""

    def __init__(self, digest: str) -> None:
        super().__init__(f"no recorded response for request digest {digest}")


class MalformedCSV(SampleError):
    """Keyword-cleaning output was not parseable as comma-separated values."""


class SearchTransportError(SampleError):
    """The search engine could not be reached or returned a bad payload."""


class SearchQuotaExceeded(SearchTransportError):
    """The search engine rejected the request for quota reasons."""


class SearchForbidden(SarcragError):
    """The search engine refused the key, the API or the day's quota (HTTP 403), so every
    later search would fail too."""


class StoreWriteError(SarcragError):
    """A write failed: of a store or cache file, or of the run's own files. It stops the run."""


class CorruptRecord(SampleError):
    """A cache or transcript file cannot be read back as the record its name promises."""

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"corrupt record {path}: {reason}")


class LogParseError(FormatError):
    """A run log line could not be parsed."""


class DefinitionUnavailable(SarcragError):
    """No text evidence was available to build a definition from."""


class VerdictNotFound(SampleError):
    """The reflection answer contained no standalone YES or NO."""


class EmptyEvaluation(SarcragError):
    """Metrics were requested but no sample was scored."""
