"""Static analysis of hardware-backed security API usage in Android apps."""

__version__ = "0.1.0"
