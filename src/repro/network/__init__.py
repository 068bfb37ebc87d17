"""Network substrate: link description and transfer cost models."""
