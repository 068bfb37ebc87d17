"""Core of the reproduction: the Generalized Reduction API and the
head-node scheduling policy shared by the executable runtime and the
discrete-event simulator."""
