"""Discrete-event performance simulator: the multi-site testbed substitute.

The simulator runs the identical scheduling policy code as the executable
runtime against calibrated models of the paper's resources (campus storage
node, S3, the WAN, EC2 cores with virtualization jitter) and reproduces the
evaluation's quantities: Figure 3/4 time decompositions, Table I job
assignment, Table II overheads.
"""
