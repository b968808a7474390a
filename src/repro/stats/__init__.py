"""Statistical helpers: seeded RNG plumbing, confidence intervals, histograms."""
