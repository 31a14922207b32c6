"""Retrieval-grounded two-call prompting pipelines for sarcasm detection."""

__version__ = "0.1.0"
