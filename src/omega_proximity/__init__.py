"""Exact factor-count censuses and coincidence counting for constructed
strongly multiplicative functions."""
