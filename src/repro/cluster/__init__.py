"""Compute substrate: the EC2 performance-variability model."""
