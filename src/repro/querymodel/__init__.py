"""Query model and peer-behaviour distributions.

This subpackage is the synthetic stand-in for the measurement data the
paper imports: the OpenNap query model of Yang & Garcia-Molina (VLDB'01)
for g(i)/f(i), and the Saroiu et al. Gnutella measurements for per-peer
file counts and session lifespans.  See DESIGN.md section 3 for the
substitution rationale.
"""
